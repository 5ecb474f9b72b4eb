"""The touch rule: who writes the priority word on a hit, a fill, a flush.

``VRMU`` decides once, from the policy's own overrides: a policy that leaves
``on_instruction`` / ``on_access`` / ``on_insert`` / ``reset_age`` as the
base class wrote them has those bodies written in place by ``VRMU.access``
and ``VRMU.on_flush``; a policy that overrides any of them is called, once
per operand.  Both arms must leave the state the public sequence leaves —
``TagStore.on_instruction`` + ``lookup`` + ``touch`` per operand, and
``reset_age`` + ``on_flush`` for a flushed window — which is what the cold
callers (``oracle.simulate_trace``, ``prefetch_context``) still run.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.counters import Stats
from repro.virec import POLICIES, VRMU, make_policy
from repro.virec.policies import LRC, SRRIP, ReplacementPolicy

from .test_reference_vrmu import (N_REGS, N_THREADS, RecordingBSI, op_of,
                                  plans)

CAPACITY = N_THREADS * N_REGS       # everything stays resident: all hits

events = st.lists(st.one_of(
    st.tuples(st.just("access"), plans),
    st.tuples(st.just("access"), plans),
    st.tuples(st.just("flush"), st.integers(1, 3)),
    st.tuples(st.just("switch"), st.integers(0, N_THREADS - 1)),
), min_size=1, max_size=60)


def warm_vrmu(policy):
    """A VRMU holding every register of every thread, thread 0 running."""
    vrmu = VRMU(CAPACITY, policy, RecordingBSI(), stats=Stats("v"))
    everything = [(flat, (True, True)) for flat in range(N_REGS)]
    running = None
    for tid in reversed(range(N_THREADS)):
        if running is not None:
            vrmu.on_context_switch(running, tid)
        running = tid
        for plan in (everything[:3], everything[3:]):
            vrmu.access(tid, op_of(plan), 0)
            vrmu.on_commit()
    assert vrmu.tagstore.resident_count() == CAPACITY
    return vrmu


def policy_state(ts):
    """The stored state as it is — nothing here folds a pending switch."""
    policy = ts.policy
    return (list(policy.word), list(policy.zeroed_at), list(policy.stamp),
            policy._clock, policy.pending_switches, policy.running,
            list(ts.dirty), getattr(policy, "rrpv", None))


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(events)
@settings(max_examples=30, deadline=None)
def test_all_hit_access_equals_the_touch_sequence(name, stream):
    vrmu = warm_vrmu(make_policy(name, CAPACITY))
    assert vrmu._writes_word == (name != "srrip")
    ts = vrmu.tagstore
    twin = copy.deepcopy(ts)        # driven through the public methods only
    running, decoded = 0, []
    hits = vrmu.stats["hits"]
    for kind, arg in stream:
        if kind == "access":
            op = op_of(arg)
            decoded.append(op)
            vrmu.access(running, op, 0)
            vrmu.on_commit()        # keeps the rollback queue out of flushes
            twin.on_instruction()
            for _reg, flat, is_dest, _is_src in op.plan:
                twin.touch(twin.lookup(running, flat), is_dest)
            hits += len(op.plan)
        elif kind == "flush":
            window = decoded[-arg:]
            vrmu.on_flush(running, window)
            slots = {twin.lookup(running, flat)
                     for op in window for _reg, flat, _d, _s in op.plan}
            for slot in slots:
                twin.policy.reset_age(slot)
            twin.policy.on_flush(slots)
        elif arg != running:
            vrmu.on_context_switch(running, arg)
            twin.on_context_switch(running, arg)
            running = arg
        assert policy_state(ts) == policy_state(twin), (kind, arg)
    assert vrmu.stats["hits"] == hits       # nothing missed, nothing filled
    ts.check_invariants()


def counting(base, hook):
    """A subclass of ``base`` overriding ``hook`` alone, counting its calls."""
    def counted(self, slot):
        self.calls.append(slot)
        getattr(super(cls, self), hook)(slot)
    cls = type(f"Counting_{hook}", (base,), {hook: counted})
    policy = cls(CAPACITY)
    policy.calls = []
    return policy


@pytest.mark.parametrize("hook", ("on_access", "reset_age", "on_insert"))
def test_an_overridden_hook_is_called_per_operand(hook):
    """Override one hook and the VRMU calls the policy for every hit
    operand, every fill and every flushed resident operand — and, the
    override deferring to the base body, ends in the state plain LRC ends
    in with its word written in place."""
    counted = VRMU(CAPACITY, counting(LRC, hook), RecordingBSI(),
                   stats=Stats("v"))
    plain = VRMU(CAPACITY, LRC(CAPACITY), RecordingBSI(), stats=Stats("v"))
    assert plain._writes_word and not counted._writes_word
    first = op_of([(0, (True, False)), (1, (False, True))])      # 2 fills
    second = op_of([(1, (True, True)), (2, (False, True))])      # hit + fill
    third = op_of([(0, (False, True)), (1, (False, True)),
                   (2, (True, False))])                          # 3 hits
    absent = op_of([(5, (False, True))])
    for vrmu in (counted, plain):
        for op in (first, second, third):
            vrmu.access(0, op, 0)
        # the window names x5, which is not resident, and x1 twice
        vrmu.on_flush(0, (second, third, absent))
    slot_of = counted.tagstore.lookup
    expected = {
        "on_access": [slot_of(0, flat) for flat in (1, 0, 1, 2)],
        "on_insert": [slot_of(0, flat) for flat in (0, 1, 2)],
        "reset_age": [slot_of(0, flat) for flat in (1, 2, 0, 1, 2)],
    }[hook]
    assert counted.tagstore.policy.calls == expected
    assert policy_state(counted.tagstore) == policy_state(plain.tagstore)
    assert counted.stats.as_dict() == plain.stats.as_dict()


def test_the_rule_reads_the_overrides_not_the_fields():
    """A subclass that keeps LRC's ``priority_fields`` but counts accesses
    is still called; SRRIP is; every other registered policy is written in
    place."""
    class Audited(LRC):
        def on_access(self, slot):
            super().on_access(slot)

    def writes_word(policy):
        return VRMU(CAPACITY, policy, RecordingBSI())._writes_word

    assert Audited.priority_fields == LRC.priority_fields
    assert not writes_word(Audited(CAPACITY))
    assert not writes_word(SRRIP(CAPACITY))
    assert writes_word(ReplacementPolicy(CAPACITY))
    assert all(writes_word(make_policy(name, CAPACITY))
               for name in POLICIES if name != "srrip")
