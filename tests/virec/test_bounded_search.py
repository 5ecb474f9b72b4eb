"""``TagStore.select_victim`` as a branch-and-bound over the priority fields.

The search dismisses an entry whose masked fields — the stored word ORed
with its owner's T — are below the best candidate's before it looks at
anything else, and returns at the first candidate that reaches the
policy's ceiling: ``mask | A_MAX`` over the 3-bit age, ``mask << lift |
clock`` over an exact one.  Three things keep that exact and are held
here, for every ranking policy (the 3-bit ones and LRU / MRT-LRU): the
shape every ``priority_fields`` mask must have, the result against the
plain ``max(eligible, key=policy.priority)`` over random stores, and — so
the bounds cannot silently stop pruning — the number of ages one search
reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.virec import POLICIES, TagStore, make_policy
from repro.virec.policies import A_MAX, EXACT_AGE_BITS, T_MASK, WORD_MAX

FIELD_POLICIES = sorted(name for name, cls in POLICIES.items()
                        if cls.priority_fields is not None)
N_THREADS = 4


def test_the_suite_covers_a_shifted_mask():
    assert {"plru", "lrc", "dead-first", "mrt-plru"} <= set(FIELD_POLICIES)
    assert POLICIES["mrt-plru"].priority_fields[1] > 0


def test_the_suite_covers_the_exact_ages():
    assert {"lru", "mrt-lru"} <= set(FIELD_POLICIES)
    assert POLICIES["mrt-lru"].priority_fields[0] & T_MASK
    for name in ("lru", "mrt-lru"):
        assert POLICIES[name].exact_age_lift is not None


@pytest.mark.parametrize("name", FIELD_POLICIES)
def test_stored_fields_rank_above_the_age(name):
    """What lets the stored fields decide before the age does."""
    mask, shift = POLICIES[name].priority_fields
    assert not mask & ~(WORD_MAX | T_MASK)  # the stored fields and T only
    # the shifted fields leave the three age bits free ...
    assert (mask >> shift) & A_MAX == 0
    # ... and the shift drops none of them, so a lower ``word & mask`` is a
    # lower priority at any age
    assert mask >> shift << shift == mask
    lift = POLICIES[name].exact_age_lift
    if lift is not None:
        # the exact form: the lifted fields clear every age below the cap
        assert mask << lift & (1 << EXACT_AGE_BITS) - 1 == 0


# -- (b) the result ----------------------------------------------------------

@st.composite
def stores(draw):
    """A tag store brought to a random state through its own methods:
    switches, and touches of running and suspended owners' entries."""
    name = draw(st.sampled_from(FIELD_POLICIES))
    capacity = draw(st.integers(6, 64))
    slots = st.integers(0, capacity - 1)
    tids = st.integers(0, N_THREADS - 1)
    # per slot: empty, or (owner, cycle its fill settles, age at the end of
    # the inserts — past ``A_MAX`` it saturates)
    entries = st.tuples(tids, st.sampled_from((0, 0, 0, 4, 9)),
                        st.integers(0, A_MAX + 2))
    resident = draw(st.lists(st.one_of(st.none(), entries, entries),
                             min_size=capacity, max_size=capacity))
    stream = draw(st.lists(st.one_of(
        st.tuples(st.just("instructions"), st.integers(1, 3)),
        st.tuples(st.just("touch"), slots),
        st.tuples(st.just("dead"), slots),
        st.tuples(st.just("flush"), st.lists(slots, max_size=4)),
        st.tuples(st.just("switch"), tids),
    ), max_size=40))

    ts = TagStore(capacity, make_policy(name, capacity))
    policy = ts.policy
    # oldest first, so a slot's age says nothing about its index
    for age in range(A_MAX + 2, -1, -1):
        for slot, entry in enumerate(resident):
            if entry is not None and entry[2] == age:
                ts.insert(slot, entry[0], slot, now=0, fill_ready=entry[1])
        if age:
            ts.on_instruction()
    running = 0
    for kind, arg in stream:
        if kind == "instructions":
            for _ in range(arg):
                ts.on_instruction()
        elif kind == "touch" and ts.valid[arg]:
            # an entry of a suspended owner is stamped: its T reads 0
            ts.touch(arg, is_write=False)
        elif kind == "dead" and ts.valid[arg]:
            policy.mark_dead(arg)       # also where the mask leaves D out
        elif kind == "flush":
            for slot in arg:
                policy.reset_age(slot)
            policy.on_flush(arg)
        elif kind == "switch" and arg != running:
            ts.on_context_switch(running, arg)
            running = arg
    return ts


def first_maximum(ts, exclude, now):
    """The specification: ``policy.priority`` over the eligible slots in
    ascending order; ``max`` keeps the first maximum."""
    eligible = [slot for slot in ts.valid_slots()
                if ts.fill_ready[slot] <= now and slot not in exclude]
    return max(eligible, key=ts.policy.priority, default=None)


@given(stores(), st.lists(st.integers(0, 63), max_size=4),
       st.sampled_from((0, 4, 9)))
@settings(max_examples=300, deadline=None)
def test_search_returns_the_first_maximum(ts, exclude, now):
    policy = ts.policy
    chosen = ts.select_victim(exclude, now)
    assert chosen == first_maximum(ts, exclude, now)
    if chosen is None:
        return
    # the class that set the bound can be out of reach: excluded ...
    mask, _shift = policy.priority_fields

    def fields(slot):
        return (policy.word[slot] | policy.t_bits(slot)) & mask

    top = fields(chosen)
    top_class = [slot for slot in ts.valid_slots() if fields(slot) == top]
    without = exclude + top_class
    assert ts.select_victim(without, now) == first_maximum(ts, without, now)
    # ... or still filling, while it sits in front of the eligible entries
    for slot in top_class:
        ts.refresh_fill(slot, now + 5)
    assert ts.select_victim(exclude, now) == first_maximum(ts, exclude, now)
    assert (ts.select_victim(exclude, now + 5)
            == first_maximum(ts, exclude, now + 5))


# -- (c) the pruning ---------------------------------------------------------

class CountingList(list):
    """The ages a search reads — ``zeroed_at`` for the 3-bit age, ``stamp``
    for an exact one — with its reads counted: one per age evaluated."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def counted_search(ts, exclude=()):
    policy = ts.policy
    name = "zeroed_at" if policy.exact_age_lift is None else "stamp"
    ages = CountingList(getattr(policy, name))
    setattr(policy, name, ages)
    chosen = ts.select_victim(exclude, now=0)
    setattr(policy, name, list(ages))
    return chosen, ages.reads


def ceiling(policy):
    """The highest priority ``policy`` can report now."""
    mask, shift = policy.priority_fields
    if policy.exact_age_lift is None:
        return mask >> shift | A_MAX
    return mask << policy.exact_age_lift | policy._clock


def test_plru_stops_at_the_first_settled_saturated_entry():
    ts = TagStore(29, make_policy("plru", 29))
    for slot in range(29):
        ts.insert(slot, 0, slot, now=0)
    for _ in range(A_MAX):
        ts.on_instruction()
    assert counted_search(ts) == (0, 1)
    # a protected or unsaturated entry in front costs what it must and no more
    ts.touch(1, is_write=False)
    assert counted_search(ts, exclude=[0]) == (2, 2)


@pytest.mark.parametrize("position", (0, 11, 28))
def test_lrc_reads_no_age_behind_a_higher_class(position):
    ts = TagStore(29, make_policy("lrc", 29))
    for slot in range(29):
        ts.insert(slot, 1 if slot == position else 0, slot, now=0)
    ts.on_context_switch(1, 0)          # thread 1's one entry gets T = 7
    assert ts.policy.T.count(7) == 1
    # age 0, so it is the bound that prunes here, not the ceiling
    assert ts.policy.age(position) == 0
    chosen, reads = counted_search(ts)
    assert chosen == position
    assert reads <= position + 1


@pytest.mark.parametrize("name", ("lrc", "mrt-plru", "mrt-lru"))
def test_the_scan_ends_at_the_ceiling(name):
    """Two entries tie on every field at the highest priority there is: the
    second one's age would be read if the first did not end the search."""
    ts = TagStore(29, make_policy(name, 29))
    for slot in range(29):
        ts.insert(slot, 1 if slot in (5, 20) else 0, slot, now=0)
    ts.on_context_switch(1, 0)
    for _ in range(A_MAX):
        ts.on_instruction()
    # 3-bit: saturated; exact: untouched since clock 0
    assert ts.policy.priority(5) == ts.policy.priority(20) == ceiling(ts.policy)
    assert counted_search(ts) == (5, 6)


@pytest.mark.parametrize("position", (0, 11, 28))
def test_mrt_lru_reads_no_age_behind_a_higher_class(position):
    """The exact-age form of the LRC case: the T=7 entry is younger than
    the clock, so it is the bound that prunes, not the ceiling."""
    ts = TagStore(29, make_policy("mrt-lru", 29))
    for slot in range(29):
        if slot != position:
            ts.insert(slot, 0, slot, now=0)
    ts.on_instruction()
    ts.insert(position, 1, position, now=0)
    ts.on_context_switch(1, 0)          # thread 1's one entry gets T = 7
    assert ts.policy.T.count(7) == 1
    assert ts.policy.priority(position) < ceiling(ts.policy)
    chosen, reads = counted_search(ts)
    assert chosen == position
    assert reads <= position + 1


@pytest.mark.parametrize("name", ("lru", "mrt-lru"))
def test_an_exact_age_ranks_past_the_3_bit_cap(name):
    """Two entries past ``A_MAX``: the 3-bit age ties them (the lower slot
    goes), the exact age evicts the older."""
    ts = TagStore(8, make_policy(name, 8))
    for slot in range(8):
        ts.insert(slot, 0, slot, now=0)
    for _ in range(3):
        ts.on_instruction()
    for slot in range(8):
        if slot != 6:
            ts.touch(slot, is_write=False)
    for _ in range(A_MAX + 2):
        ts.on_instruction()
    assert ts.policy.age(0) == ts.policy.age(6) == A_MAX
    assert ts.policy.priority(6) - ts.policy.priority(0) == 3
    # slot 6 is untouched since clock 0, which ends an LRU search (nothing
    # is older); MRT-LRU's ceiling needs T = 7 too, so it reads every age
    assert counted_search(ts) == (6, 7 if name == "lru" else 8)
