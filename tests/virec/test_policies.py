"""Unit tests for the register-cache replacement policies (Section 4)."""

import pytest

from repro.virec.policies import (
    A_MAX,
    C_BIT,
    LRC,
    LRU,
    MRTLRU,
    MRTPLRU,
    PLRU,
    T_MASK,
    T_MAX,
    make_policy,
)


def all_valid(n):
    """Candidate list naming every slot of an ``n``-entry cache."""
    return list(range(n))


def test_make_policy_names():
    for name in ("plru", "lru", "mrt-plru", "mrt-lru", "lrc"):
        assert make_policy(name, 8).name == name
    with pytest.raises(ValueError):
        make_policy("belady", 8)
    with pytest.raises(ValueError):
        make_policy("plru", 0)


def test_plru_ages_saturate():
    p = PLRU(4)
    v = all_valid(4)
    for _ in range(20):
        p.on_instruction()
    assert all(a == A_MAX for a in p.A)


def test_plru_evicts_oldest():
    p = PLRU(4)
    v = all_valid(4)
    for i in range(4):
        p.on_instruction()
        p.on_access(i)
    # entry 0 accessed longest ago -> highest age -> victim
    assert p.select_victim(v) == 0


def test_lru_exact_recency():
    p = LRU(8)
    v = all_valid(8)
    order = [3, 1, 4, 0, 5, 2, 6, 7]
    for i in order:
        p.on_instruction()
        p.on_access(i)
    assert p.select_victim(v) == 3  # least recently used


def test_plru_fuzzes_old_ages_but_lru_does_not():
    """With 3-bit ages, accesses >7 instructions apart are indistinguishable."""
    plru, lru = PLRU(4), LRU(4)
    v = all_valid(4)
    for pol in (plru, lru):
        pol.on_access(0)
        for _ in range(10):
            pol.on_instruction()
        pol.on_access(1)
        for _ in range(10):
            pol.on_instruction()
    # both 0 and 1 saturated for PLRU
    assert plru.A[0] == plru.A[1] == A_MAX
    # exact LRU still distinguishes them
    assert lru.priority(0) > lru.priority(1)


def test_mrt_plru_targets_most_recently_suspended_thread():
    """Figure 5: evict from the thread that will run furthest in the future."""
    p = MRTPLRU(6)
    valid = all_valid(6)
    owner = [0, 0, 0, 1, 1, 1]
    # thread 0 was running and is now suspended; thread 1 takes over
    for i in range(6):
        p.on_access(i)
    p.on_context_switch(owner, prev_tid=0, new_tid=1)
    assert all(t == T_MAX for t in p.T[:3])
    assert all(t == 0 for t in p.T[3:])
    victim = p.select_victim(valid)
    assert victim < 3  # a register of the suspended thread


def test_t_bits_decrement_for_other_threads():
    p = MRTPLRU(4)
    owner = [0, 1, 2, 3]
    p.on_context_switch(owner, prev_tid=0, new_tid=1)
    assert p.T[0] == T_MAX
    p.on_context_switch(owner, prev_tid=1, new_tid=2)
    assert p.T[1] == T_MAX
    assert p.T[0] == T_MAX - 1  # decremented
    assert p.T[2] == 0          # running thread
    # round-robin: oldest-suspended thread has the lowest T
    p.on_context_switch(owner, prev_tid=2, new_tid=3)
    assert p.T[0] == T_MAX - 2


def test_lrc_prefers_committed_over_inflight():
    """Figure 6: same thread, same saturated age — C bit breaks the tie."""
    p = LRC(3)
    v = all_valid(3)
    for i in range(3):
        p.on_access(i)
    for _ in range(10):
        p.on_instruction()   # all ages saturate
    p.on_flush([0, 1])        # regs 0,1 were in flight when flushed
    assert p.C[0] == 0 and p.C[1] == 0 and p.C[2] == 1
    assert p.select_victim(v) == 2  # committed register evicted first


def test_lrc_thread_bits_dominate_commit_bit():
    p = LRC(4)
    valid = all_valid(4)
    owner = [0, 0, 1, 1]
    for i in range(4):
        p.on_access(i)
    p.on_flush([2])  # an in-flight reg of thread 1
    p.on_context_switch(owner, prev_tid=0, new_tid=1)
    # thread-0 registers (T=7) evicted before thread-1 even though committed
    assert p.select_victim(valid) in (0, 1)


def test_speculative_commit_initialization():
    p = LRC(2)
    p.on_access(0)
    assert p.C[0] == 1  # speculatively committed until a flush says otherwise


def test_select_victim_respects_candidates():
    p = PLRU(4)
    v = all_valid(4)
    for _ in range(3):
        p.on_instruction()
    assert p.select_victim([1]) == 1
    assert p.select_victim([]) is None


def test_mrt_lru_orders_within_thread_exactly():
    p = MRTLRU(4)
    v = all_valid(4)
    for i in (2, 0, 3, 1):
        p.on_instruction()
        p.on_access(i)
    assert p.select_victim(v) == 2


def test_policy_flag_metadata():
    # the victim search reads T and C only through the priority_fields mask
    lrc_mask, _ = LRC.priority_fields
    assert lrc_mask & T_MASK == T_MASK and lrc_mask & C_BIT
    assert MRTPLRU.priority_fields[0] == T_MASK
    assert PLRU.priority_fields[0] == 0
