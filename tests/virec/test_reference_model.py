"""The flat-int policies against the eager numpy reference model.

``reference_policy.py`` ages every valid entry on every instruction and
picks victims with ``argmax`` over arrays; the production policies keep one
concatenated word per entry, a *lazy* age and a one-pass victim search.
Both are driven here with the same random event stream — through a real
:class:`~repro.virec.tagstore.TagStore` on the production side — and after
every event the decoded T/C/A/D fields and priorities of every resident
entry, and every chosen victim, must agree.  The tag store's victim search
is one loop (filter, priority, first maximum) for the policies that state
their priority as ``priority_fields``; it is held to
``max(candidates, key=reference priority)`` with registers still filling
and with slots protected by the instruction in decode.

Thread recency is kept per thread and derived per entry on read: an
entry's T is its owner's unless a write stamp says it was written at or
after its owner's suspension.  The ``windows`` stream checks *between*
windows of 2-9 chained context switches, with the per-entry writes the
stamps have to be exact against placed inside them: accesses and inserts
for the running thread before and after it was switched in, inserts and
touches for suspended owners (``context_prefetch`` does the former),
evict/re-insert, flushes and dead marks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.virec import POLICIES, TagStore, make_policy

from .reference_policy import REFERENCE_POLICIES

CAPACITY = 8
N_THREADS = 3

slots = st.integers(0, CAPACITY - 1)
tids = st.integers(0, N_THREADS - 1)
slot_sets = st.lists(slots, max_size=4, unique=True)

events = st.lists(st.one_of(
    st.tuples(st.just("instruction")),
    st.tuples(st.just("access"), slots),
    # (slot, owner, cycle its fill settles)
    st.tuples(st.just("insert"), slots, tids, st.sampled_from((0, 0, 4, 9))),
    st.tuples(st.just("evict"), slots),
    # (slots flushed from the rollback queue, flushed youngsters whose age
    # the decode stage had just zeroed)
    st.tuples(st.just("flush"), slot_sets, slot_sets),
    st.tuples(st.just("switch"), tids, tids),
    st.tuples(st.just("dead"), slots),
    # (slots protected by the instruction in decode, cycle of the search)
    st.tuples(st.just("victim"), slot_sets, st.integers(0, 10)),
), min_size=1, max_size=120)


# One window: 2-9 switches, each preceded by a few events that never read
# T on their own.  Slots and threads are drawn as indices and resolved
# against the state at that point (see ``Pair.apply_in_window``).
quiet_events = st.lists(st.one_of(
    st.tuples(st.just("instruction")),
    st.tuples(st.just("access-running"), slots),
    # any resident entry, through ``TagStore.touch`` (which stamps the
    # entry when its owner is suspended; the core never does this)
    st.tuples(st.just("access"), slots),
    st.tuples(st.just("insert-running"), slots),
    st.tuples(st.just("insert-suspended"), slots, tids),
    # (slot, whether the new owner is the running thread)
    st.tuples(st.just("reinsert"), slots, st.booleans()),
    st.tuples(st.just("evict"), slots),
    st.tuples(st.just("flush"), slot_sets, slot_sets),
    st.tuples(st.just("dead"), slots),
), max_size=4)
windows = st.lists(
    st.lists(st.tuples(quiet_events, tids), min_size=2, max_size=9),
    min_size=1, max_size=6)


class Pair:
    """One production tag store + policy and its reference twin."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ts = TagStore(CAPACITY, make_policy(name, CAPACITY))
        self.new = self.ts.policy
        self.ref = REFERENCE_POLICIES[name](CAPACITY)
        self.valid = np.zeros(CAPACITY, dtype=bool)
        self.owner = np.full(CAPACITY, -1, dtype=np.int64)
        self.fill_ready = np.zeros(CAPACITY, dtype=np.int64)
        self.next_reg = 0
        self.running = 0

    def apply(self, event):
        kind, *args = event
        ts, ref, valid = self.ts, self.ref, self.valid
        if kind == "instruction":
            ts.on_instruction()
            ref.on_instruction(valid)
        elif kind == "access" and valid[args[0]]:
            ts.touch(args[0], is_write=False)
            ref.on_access(args[0])
        elif kind == "insert" and not valid[args[0]]:
            slot, tid, ready = args
            self.next_reg += 1
            ts.insert(slot, tid, self.next_reg, now=0, fill_ready=ready)
            valid[slot], self.owner[slot] = True, tid
            self.fill_ready[slot] = ready
            ref.on_insert(slot)
        elif kind == "evict" and valid[args[0]]:
            ts.evict(args[0])
            valid[args[0]], self.owner[args[0]] = False, -1
        elif kind == "flush":
            flushed = [s for s in args[0] if valid[s]]
            for slot in (s for s in args[1] if valid[s]):
                self.new.reset_age(slot)
                ref.A[slot] = 0
                flushed.append(slot)
            self.new.on_flush(set(flushed))
            ref.on_flush(set(flushed))
        elif kind == "switch" and args[0] != args[1]:
            ts.on_context_switch(*args)
            ref.on_context_switch(self.owner, valid, *args)
            self.running = args[1]
        elif kind == "dead" and valid[args[0]]:
            self.new.mark_dead(args[0])
            ref.mark_dead(args[0])
        elif kind == "victim":
            return self.victim(*args)

    def apply_in_window(self, event):
        """Resolve a ``quiet_events`` entry against the current state and
        apply it; none of these reads T."""
        kind, *args = event
        running = self.running
        if kind == "access-running":
            own = np.flatnonzero(self.valid & (self.owner == running))
            if len(own):
                self.apply(("access", int(own[args[0] % len(own)])))
        elif kind == "insert-running":
            self.apply(("insert", args[0], running, 0))
        elif kind == "insert-suspended":
            if args[1] != running:
                self.apply(("insert", args[0], args[1], 0))
        elif kind == "reinsert":
            slot, to_running = args
            if self.valid[slot]:
                self.apply(("evict", slot))
                tid = running if to_running else (running + 1) % N_THREADS
                self.apply(("insert", slot, tid, 0))
        else:
            self.apply(event)

    def victim(self, protected, now):
        """One victim search on both sides; the slot they agree on."""
        candidates = self.valid & (self.fill_ready <= now)
        candidates[protected] = False
        # read before the search: SRRIP ages its candidates during it
        priority = self.ref.priority().copy()
        chosen = self.ts.select_victim(protected, now=now)
        assert chosen == self.ref.select_victim(candidates)
        if self.name != "random":
            assert chosen == max(np.flatnonzero(candidates).tolist(),
                                 key=priority.__getitem__, default=None)
        return chosen

    def check(self):
        new, ref = self.new, self.ref
        for slot in np.flatnonzero(self.valid):
            fields = new.describe(slot)
            assert (fields["T"], fields["C"], fields["A"], fields["D"]) == (
                ref.T[slot], ref.C[slot], ref.A[slot], ref.D[slot]), slot
            assert fields["prio"] == ref.priority()[slot], slot
        assert [new.T[s] for s in range(CAPACITY) if self.valid[s]] == \
            ref.T[self.valid].tolist()


def test_reference_registry_matches_production():
    assert sorted(REFERENCE_POLICIES) == sorted(POLICIES)


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(events)
@settings(max_examples=60, deadline=None)
def test_policy_agrees_with_reference_model(name, stream):
    pair = Pair(name)
    for event in stream:
        pair.apply(event)
        pair.check()
    pair.ts.check_invariants()


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(st.lists(st.tuples(slots, tids), max_size=CAPACITY), windows)
@settings(max_examples=80, deadline=None)
def test_switch_windows_without_a_read_in_between(name, resident, stream):
    """Per-thread T against the eager model: whole windows of switches go
    by with per-entry writes in between and nothing looks at T until the
    window is over."""
    pair = Pair(name)
    for slot, tid in resident:
        pair.apply(("insert", slot, tid, 0))
    for window in stream:
        for quiet, new_tid in window:
            for event in quiet:
                pair.apply_in_window(event)
            pair.apply(("switch", pair.running, new_tid))
        pair.check()
    pair.ts.check_invariants()


def test_an_entry_prefetched_for_a_suspended_thread_keeps_t_zero():
    """The case the write stamp decides: the entry is written with T = 0
    while its owner is suspended and only decays from there — its owner's
    other entries carry the owner's recency."""
    pair = Pair("lrc")
    pair.apply(("insert", 0, 0, 0))
    pair.apply(("switch", 0, 1))
    pair.apply(("switch", 1, 2))
    pair.apply(("insert", 1, 0, 0))         # thread 0 was suspended 2 ago
    pair.apply(("switch", 2, 1))
    assert pair.new.T[:2] == (5, 0)
    pair.check()
    pair.apply(("switch", 1, 0))            # resumed: everything of 0 is 0
    pair.apply(("switch", 0, 2))            # suspended again: both are 7
    assert pair.new.T[:2] == (7, 7)
    pair.check()
    # two threads: the context-prefetch successor is the thread the same
    # switch just suspended, so the write and the suspension share a stamp
    pair = Pair("lrc")
    pair.apply(("insert", 0, 0, 0))
    pair.apply(("switch", 0, 1))
    pair.apply(("insert", 1, 0, 0))         # prefetched for thread 0
    assert pair.new.T[:2] == (7, 0)
    pair.check()
    pair.apply(("switch", 1, 0))
    pair.apply(("switch", 0, 1))
    assert pair.new.T[:2] == (7, 7)
    pair.check()


def test_a_switch_that_breaks_the_chain_gets_the_eager_result():
    """``prev_tid`` is normally the thread the previous switch resumed; a
    caller that says otherwise still gets the eager result."""
    pair = Pair("mrt-plru")
    for slot in range(3):
        pair.apply(("insert", slot, slot, 0))
    pair.apply(("switch", 0, 1))
    pair.apply(("switch", 2, 0))            # thread 1 was running, not 2
    assert pair.new.T[:3] == (0, 0, 7)
    pair.check()


def test_the_thread_table_is_derived_at_most_once_per_switch():
    """A switch only records the suspension; the first read of T after it
    derives the per-thread table, and every later read shares it."""
    pair = Pair("lrc")
    for slot in range(3):
        pair.apply(("insert", slot, slot, 0))
    policy = pair.new
    table = policy.thread_bits()
    pair.apply(("switch", 0, 1))
    assert policy.thread_bits() is not table
    table = policy.thread_bits()
    pair.victim([], 0)
    pair.check()
    assert policy.thread_bits() is table
    assert (table[0], table[1], table[2]) == (7 << 4, 0, 0)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_flush_age_reset_and_ageing_rule(name):
    """The two cases lazy ageing could get wrong: a flush zeroes an age
    without an access, and SRRIP alone does not age per instruction."""
    pair = Pair(name)
    for slot in range(4):
        pair.apply(("insert", slot, slot % N_THREADS, 0))
    for _ in range(3):
        pair.apply(("instruction",))
    pair.check()
    if name == "srrip":
        assert pair.new.A[:4] == (6, 6, 6, 6)    # inserted long, never aged
    else:
        assert pair.new.A[:4] == (3, 3, 3, 3)
    pair.apply(("flush", [0], [1]))
    pair.check()
    assert pair.new.A[1] == 0 and pair.new.C[1] == 0
    assert pair.new.A[0] == pair.new.A[2] and pair.new.C[0] == 0
    for _ in range(9):
        pair.apply(("instruction",))
        pair.check()
    pair.apply(("victim", [], 0))
    pair.check()


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_ties_inflight_fills_and_protected_slots(name):
    """Eight entries of one thread inserted in one instruction tie on every
    field: the lowest slot that is settled and unprotected goes.  (Random
    draws and SRRIP ages the candidates of every search, so for those two
    only the agreement with the reference inside ``victim`` applies.)"""
    pair = Pair(name)
    for slot in range(CAPACITY):
        pair.apply(("insert", slot, 0, 9 if slot in (1, 2) else 0))
    own_rule = name in ("random", "srrip")
    assert pair.victim([], now=5) == 0 or own_rule
    assert pair.victim([0], now=5) == 3 or own_rule    # 1 and 2 still filling
    assert pair.victim([0], now=9) == 1 or own_rule
    assert pair.victim([0, 1, 2, 3], now=9) == 4 or own_rule
    assert pair.victim(list(range(CAPACITY)), now=9) is None
    assert pair.victim([0, 3, 4, 5, 6, 7], now=8) is None
    # one older entry breaks the tie wherever it sits
    pair.apply(("instruction",))
    for slot in range(CAPACITY - 1):
        pair.apply(("access", slot))
    if not own_rule:
        assert pair.victim([], now=9) == CAPACITY - 1
    pair.check()
