"""The flattened VRMU against the method-per-step one it replaced.

``reference_vrmu.py`` is the previous ``VRMU.access`` / ``on_flush`` /
``_spill_victim`` (and the cold paths they share code with) verbatim over
the public ``TagStore`` methods.  Both sides get the same random stream —
instructions of 1-4 operands (destination-only, source, both), commits with
kill sets, flushes, context switches, context prefetches — against a
recording backing-store interface, and after every step every return
value, ``last_spill_wait``, the BSI call sequence, the rollback queue, the
tag-store arrays, the policy's stored state and ``stats.as_dict()`` must be
equal.  Capacities of 6-12 entries with fills that take 4-19 cycles keep
registers in flight, so the "every candidate is still filling" wait loop
runs.

The stream follows the policy's contract: while switches are pending the
VRMU is only asked about the running thread's registers, as the core does.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.counters import Stats
from repro.virec import POLICIES, VRMU, make_policy

from .reference_vrmu import ReferenceVRMU

N_THREADS = 3
N_REGS = 6          # flat registers each thread names


class RecordingBSI:
    """Logs every transaction; timing is a pure function of its arguments."""

    def __init__(self):
        self.log = []
        self.fill_spill_wait = 0

    def fill(self, t, tid, flat):
        self.log.append(("fill", t, tid, flat))
        self.fill_spill_wait += (t + flat) % 3
        return t + 4 + (7 * tid + 5 * flat) % 16

    def dummy_fill(self, t, tid, flat):
        self.log.append(("dummy_fill", t, tid, flat))
        return t

    def spill(self, t, tid, flat, dirty):
        self.log.append(("spill", t, tid, flat, dirty))
        return t + 1

    def elide_spill(self, t, tid, flat):
        self.log.append(("elide_spill", t, tid, flat))
        return t


flats = st.integers(0, N_REGS - 1)
#: ``(flat, is_dest, is_src)``: destination-only, source, or both
operands = st.tuples(flats, st.sampled_from(
    ((True, False), (False, True), (True, True))))
plans = st.lists(operands, min_size=1, max_size=4,
                 unique_by=lambda operand: operand[0])

events = st.lists(st.one_of(
    # (operands, is a memory op, cycles since the previous decode)
    st.tuples(st.just("access"), plans, st.booleans(), st.integers(0, 3)),
    st.tuples(st.just("access"), plans, st.booleans(), st.integers(0, 3)),
    st.tuples(st.just("access"), plans, st.booleans(), st.integers(0, 30)),
    # (kill set of the committing op)
    st.tuples(st.just("commit"), st.lists(flats, max_size=3, unique=True)),
    # (how many of the latest decoded ops the switch flushes)
    st.tuples(st.just("flush"), st.integers(1, 3)),
    st.tuples(st.just("switch"), st.integers(0, N_THREADS - 1)),
    st.tuples(st.just("prefetch"), st.integers(0, N_THREADS - 1)),
), min_size=1, max_size=90)


def op_of(plan, is_mem=False, kills=()):
    """What the VRMU reads of a ``DecodedOp``."""
    return SimpleNamespace(
        plan=tuple((None, flat, is_dest, is_src)
                   for flat, (is_dest, is_src) in plan),
        is_mem=is_mem, kill_flats=tuple(kills))


class Side:
    def __init__(self, cls, name, capacity, group_evict):
        self.bsi = RecordingBSI()
        self.vrmu = cls(capacity, make_policy(name, capacity), self.bsi,
                        group_evict=group_evict, stats=Stats("v"))
        # the stream prefetches contexts, so the segments have a reader
        self.vrmu.record_segments = True

    def state(self):
        vrmu = self.vrmu
        ts, policy = vrmu.tagstore, vrmu.tagstore.policy
        return {
            "last_spill_wait": vrmu.last_spill_wait,
            "bsi": list(self.bsi.log),
            "rollback": [(tuple(slots), is_mem)
                         for slots, is_mem in vrmu.rollback._queue],
            "tags": (list(ts.valid), list(ts.owner), list(ts.areg),
                     list(ts.dirty), list(ts.fill_ready),
                     {(tid, flat): slot
                      for tid, flat, slot in ts.mappings()}, ts.resident),
            "policy": (list(policy.word), list(policy.zeroed_at),
                       list(policy.stamp), policy._clock,
                       policy.pending_switches, policy.running,
                       getattr(policy, "rrpv", None),
                       getattr(policy, "_state", None)),
            "segments": {tid: sorted(regs)
                         for tid, regs in vrmu.segment_regs.items()},
            "stats": vrmu.stats.as_dict(),
        }


def run_stream(name, capacity, group_evict, stream):
    new = Side(VRMU, name, capacity, group_evict)
    ref = Side(ReferenceVRMU, name, capacity, group_evict)
    running, t, decoded = 0, 0, []
    for kind, *args in stream:
        if kind == "access":
            plan, is_mem, dt = args
            t += dt
            op = op_of(plan, is_mem)
            decoded.append(op)
            results = [side.vrmu.access(running, op, t)
                       for side in (new, ref)]
        elif kind == "commit":
            op = op_of((), kills=args[0])
            results = [side.vrmu.on_commit(running, op)
                       for side in (new, ref)]
        elif kind == "flush":
            window = tuple(decoded[-args[0]:])
            results = [side.vrmu.on_flush(running, window)
                       for side in (new, ref)]
        elif kind == "switch":
            if args[0] == running:
                continue
            results = [side.vrmu.on_context_switch(running, args[0])
                       for side in (new, ref)]
            running = args[0]
        else:
            results = [side.vrmu.prefetch_context(args[0], t)
                       for side in (new, ref)]
        assert results[0] == results[1], (kind, args)
        assert new.state() == ref.state(), (kind, args)
    new.vrmu.tagstore.check_invariants()
    return new


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(st.integers(6, 12), st.sampled_from((1, 1, 2)), events)
@settings(max_examples=50, deadline=None)
def test_vrmu_agrees_with_reference_model(name, capacity, group_evict, stream):
    run_stream(name, capacity, group_evict, stream)


@pytest.mark.parametrize("name", ("lrc", "dead-elide", "srrip"))
def test_the_stream_reaches_every_miss_path(name):
    """One fixed stream per policy that takes the free-slot path, the
    victim path, the in-flight wait loop, a group eviction, a dead victim
    and (dead-elide) an elided writeback — so the agreement above is not
    an agreement of untaken branches."""
    wide = [(flat, (False, True)) for flat in range(4)]
    other = [(4, (True, False)), (5, (True, True))]
    stream = []
    for tid in (1, 2, 0, 1, 2, 0):
        stream += [("access", wide, True, 1), ("access", other, False, 0),
                   ("commit", [0, 1, 2]), ("commit", [4]),
                   ("access", wide[:2] + other, False, 25),
                   ("access", wide[2:], False, 25),
                   ("flush", 2), ("switch", tid), ("prefetch", (tid + 1) % 3)]
    side = run_stream(name, 6, 2, stream)
    stats = side.vrmu.stats
    assert stats["spill_evictions"] and stats["victim_wait_cycles"]
    assert stats["group_evictions"] and stats["context_prefetches"]
    kinds = {entry[0] for entry in side.bsi.log}
    assert {"fill", "dummy_fill", "spill"} <= kinds
    if name == "dead-elide":
        assert stats["dead_evictions"] and "elide_spill" in kinds
