"""Structural invariant checks catch deliberately corrupted VRMU state.

Each test runs a healthy ViReC core to completion, verifies the checks
pass, then breaks one structure by hand and asserts the matching typed
violation fires (with its documented invariant id from
``docs/correctness.md``).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import build_gather_core  # noqa: E402

from repro.errors import SanitizerViolation
from repro.sanitizer import SanitizeConfig, Sanitizer
from repro.virec import ViReCConfig, ViReCCore
from repro.virec.policies import C_BIT


def _sanitized_core(**cfg_kw):
    core, mem, _, _ = build_gather_core(
        ViReCCore, n_threads=4, n=32, virec=ViReCConfig(rf_size=16))
    vsan = Sanitizer(SanitizeConfig(shadow=False, **cfg_kw))
    vsan.attach(core, mem)
    core.run()
    return core, vsan


def _check(core):
    (cs,) = core.observers
    cs.check(core.now)


def test_healthy_run_passes_all_checks():
    core, vsan = _sanitized_core()
    _check(core)
    vsan.finalize(core.now)


def test_dangling_map_entry_caught():
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    tid, areg, slot = next(ts.mappings())
    ts.valid[slot] = False          # row entry now points at an invalid slot
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "tagstore.bijection"


def test_tag_mismatch_caught():
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    tid, areg, slot = next(ts.mappings())
    ts.owner[slot] = tid + 1        # tag disagrees with the row entry
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "tagstore.bijection"


def test_map_valid_count_mismatch_caught():
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    tid, areg, slot = next(ts.mappings())
    ts.rows[tid][areg] = -1         # a valid slot no row entry names
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "tagstore.bijection"
    assert excinfo.value.details["mapped"] + 1 == excinfo.value.details["valid"]


def test_resident_count_drift_caught():
    """The stored count is what makes "no free slot" one compare, so it
    must be the number of row entries."""
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    ts.resident -= 1
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "tagstore.bijection"
    assert excinfo.value.details["resident"] + 1 == excinfo.value.details["mapped"]
    with pytest.raises(SanitizerViolation, match="resident count drifted"):
        ts.check_invariants()


def test_priority_word_out_of_range_caught():
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    slot = ts.valid_slots()[0]
    ts.policy.word[slot] = 99 << 4  # T is derived per thread, not stored
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "policy.word"


def test_stored_age_bits_caught():
    """The low three bits of the stored word belong to the lazy age."""
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    slot = ts.valid_slots()[0]
    ts.policy.word[slot] |= 5
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "policy.word"


def test_lazy_age_out_of_range_caught():
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    slot = ts.valid_slots()[0]
    ts.policy.zeroed_at[slot] = ts.policy._clock + 3   # zeroed in the future
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "policy.word"
    assert excinfo.value.details["A"] == -3


def test_thread_recency_out_of_range_caught():
    """T is derived from the owner's suspension stamp: a stamp from a
    switch that has not happened yet gives a T above its 3 bits."""
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    policy = ts.policy
    slot = ts.valid_slots()[0]
    policy.switches += 1
    policy.suspended_at[ts.owner[slot]] = policy.switches + 3
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "policy.word"
    assert excinfo.value.details["T"] == 10


def test_sabotaged_search_ceiling_caught(monkeypatch):
    """``policy.order`` probes the search production runs: with the tag
    store's ceiling set too low the scan returns at the first entry it
    takes for the highest rank, in front of an older one."""
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    policy = ts.policy
    young, old = ts.valid_slots()[:2]
    policy.zeroed_at[young] = policy._clock - 4
    policy.zeroed_at[old] = policy._clock - 7
    # T = 7 everywhere: one more switch suspended every owner
    policy.switches += 1
    for slot in ts.valid_slots():
        policy.suspended_at[ts.owner[slot]] = policy.switches
        policy.word[slot] = C_BIT               # C = 1 everywhere
        if slot not in (young, old):
            policy.zeroed_at[slot] = policy._clock
    _check(core)                                # the real search finds ``old``
    monkeypatch.setattr("repro.virec.tagstore.A_MAX", 3)
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "policy.order"
    assert excinfo.value.details["victim"] == young
    assert excinfo.value.details["expected"] == old


def test_rollback_depth_violation_caught():
    core, _ = _sanitized_core()
    core.vrmu.rollback.depth = -1   # any occupancy now exceeds the bound
    core.vrmu.rollback._queue.append(
        type("Entry", (), {"slots": (0,)})())
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "rollback.depth"


def test_bsi_bookkeeping_violation_caught():
    core, _ = _sanitized_core()
    core.bsi.busy_until = -5
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "bsi.bookkeeping"


def test_backing_region_mismatch_caught():
    core, _ = _sanitized_core(structures=False)
    core.dcache.register_region = (0x1000, 0x2000)
    with pytest.raises(SanitizerViolation) as excinfo:
        _check(core)
    assert excinfo.value.invariant == "backing.bounds"


def test_tagstore_check_invariants_raises_typed():
    """The tag store's own invariant checker now raises the typed
    violation — still an AssertionError for legacy property tests."""
    core, _ = _sanitized_core()
    ts = core.vrmu.tagstore
    ts.check_invariants()           # healthy state passes
    tid, areg, _slot = next(ts.mappings())
    ts.rows[tid][areg] = -1
    with pytest.raises(SanitizerViolation):
        ts.check_invariants()
    ts_err = None
    try:
        ts.check_invariants()
    except AssertionError as exc:   # the legacy contract
        ts_err = exc
    assert isinstance(ts_err, SanitizerViolation)
    assert ts_err.invariant == "tagstore.bijection"
