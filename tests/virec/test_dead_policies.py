"""Dead-hint replacement policies (``dead-first`` / ``dead-elide``).

Covers the policy registry/factory, victim preference for dead entries,
end-to-end correctness with writeback elision, the pin-release path, and
the acceptance-critical inertness guarantee: annotating a decoded
program changes nothing unless a hint-consuming policy is selected.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import GATHER_REGS, build_gather_core  # noqa: E402

from repro.analysis.dataflow import annotate  # noqa: E402
from repro.virec import ViReCConfig, ViReCCore  # noqa: E402
from repro.virec.policies import (  # noqa: E402
    LRC,
    POLICIES,
    DeadElideLRC,
    DeadFirstLRC,
    ReplacementPolicy,
    make_policy,
)


def all_valid(n):
    """Candidate list naming every slot of an ``n``-entry cache."""
    return list(range(n))


# -- registry / factory ------------------------------------------------------
def test_registry_covers_every_policy_class():
    assert POLICIES["dead-first"] is DeadFirstLRC
    assert POLICIES["dead-elide"] is DeadElideLRC
    for name, cls in POLICIES.items():
        assert cls.name == name
        assert make_policy(name, 8).name == name


def test_from_spec_classmethod():
    p = ReplacementPolicy.from_spec("dead-elide", 16)
    assert isinstance(p, DeadElideLRC) and p.capacity == 16
    with pytest.raises(ValueError):
        ReplacementPolicy.from_spec("belady", 16)


def test_hint_capability_flags():
    assert not LRC(4).uses_dead_hints
    assert DeadFirstLRC(4).uses_dead_hints
    assert not DeadFirstLRC(4).elides_dead_writebacks
    assert DeadElideLRC(4).uses_dead_hints
    assert DeadElideLRC(4).elides_dead_writebacks


# -- victim selection --------------------------------------------------------
def test_dead_first_prefers_dead_victim():
    p = DeadFirstLRC(4)
    v = all_valid(4)
    for i in range(4):
        p.on_instruction()
        p.on_access(i)
    # entry 3 is the most recently used; dead bit must still win
    p.mark_dead(3)
    assert p.select_victim(v) == 3


def test_dead_bit_cleared_on_reaccess():
    p = DeadFirstLRC(4)
    v = all_valid(4)
    for i in range(4):
        p.on_instruction()
        p.on_access(i)
    p.mark_dead(2)
    p.on_access(2)                      # redefined: no longer dead
    assert p.select_victim(v) != 2


def test_plain_lrc_ignores_dead_bit():
    base, dead = LRC(4), DeadFirstLRC(4)
    v = all_valid(4)
    for p in (base, dead):
        for i in range(4):
            p.on_instruction()
            p.on_access(i)
        p.mark_dead(3)
    assert all(base.priority(i) < 128 for i in v)  # D never reaches priority
    assert dead.priority(3) >= 128


# -- end-to-end --------------------------------------------------------------
def _run(policy, n_threads=4, frac=0.4):
    rf = max(6, int(frac * n_threads * len(GATHER_REGS)))
    core, mem, sym, expected = build_gather_core(
        ViReCCore, n_threads=n_threads,
        virec=ViReCConfig(rf_size=rf, policy=policy))
    stats = core.run()
    return core, stats, mem, sym, expected


@pytest.mark.parametrize("policy", ["dead-first", "dead-elide"])
def test_dead_policies_are_architecturally_correct(policy):
    core, stats, mem, sym, expected = _run(policy)
    assert mem.read_array(sym["out"], len(expected)) == expected
    assert core.vrmu.stats["dead_marks"] > 0
    assert core.vrmu.stats["dead_evictions"] > 0


def test_dead_elide_skips_writebacks_and_releases_pins():
    core, stats, mem, sym, expected = _run("dead-elide")
    flat = stats.as_dict()
    elided = core.vrmu.stats["elided_writebacks"]
    assert elided > 0
    assert core.bsi.stats["elided_spills"] == elided
    # every elided spill still releases its dcache line pin
    assert core.dcache.stats["metadata_unpins"] == elided
    # no pin leak: elision leaves exactly the pin footprint a spilling
    # policy leaves (only registers still resident at halt stay pinned)
    def total_pins(c):
        return sum(ln.pin for ways in c.dcache._sets
                   for ln in ways.values())
    baseline, *_ = _run("dead-first")
    assert total_pins(core) == total_pins(baseline)
    assert flat  # smoke: flattened tree renders


def test_dead_first_spills_everything_it_evicts():
    core, stats, *_ = _run("dead-first")
    assert core.vrmu.stats["elided_writebacks"] == 0
    assert core.bsi.stats["elided_spills"] == 0


# -- inertness (acceptance-critical) -----------------------------------------
def test_hints_inert_under_non_hint_policy():
    """Annotating the shared decoded program must not change a single
    counter of an ``lrc`` run: the hint bits are dead weight unless a
    hint-consuming policy is selected."""
    core1, stats1, mem1, sym1, expected = _run("lrc")
    base = stats1.as_dict()

    # force hints onto the (cached, shared) decoded program, run again
    core2, mem2, sym2, _ = build_gather_core(
        ViReCCore, n_threads=4,
        virec=ViReCConfig(rf_size=max(6, int(0.4 * 4 * len(GATHER_REGS))),
                          policy="lrc"))[0:4]
    annotate(core2.dprog)
    assert core2.dprog[0].kill_flats is not None
    stats2 = core2.run()
    after = stats2.as_dict()

    assert stats1["cycles"] == stats2["cycles"]
    assert base == after
    assert mem2.read_array(sym2["out"], len(expected)) == expected


def test_non_hint_policy_never_marks_dead():
    core, stats, *_ = _run("lrc")
    assert core.vrmu.stats["dead_marks"] == 0
    assert core.vrmu.stats["dead_evictions"] == 0
