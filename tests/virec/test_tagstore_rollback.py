"""Unit tests for the tag store and rollback queue."""

import pytest

from repro.isa.registers import NUM_ARCH_REGS
from repro.virec.policies import LRC, PLRU
from repro.virec.rollback import RollbackQueue
from repro.virec.tagstore import TagStore


def make_ts(capacity=8, policy_cls=LRC):
    return TagStore(capacity, policy_cls(capacity))


# -- tag store -------------------------------------------------------------

def test_insert_lookup_evict_roundtrip():
    ts = make_ts()
    ts.insert(0, tid=1, flat_reg=5, now=0)
    assert ts.lookup(1, 5) == 0
    assert ts.lookup(0, 5) is None
    tid, reg, dirty = ts.evict(0)
    assert (tid, reg, dirty) == (1, 5, False)
    assert ts.lookup(1, 5) is None


def test_duplicate_mapping_rejected():
    ts = make_ts()
    ts.insert(0, 1, 5, 0)
    with pytest.raises(ValueError):
        ts.insert(1, 1, 5, 0)


@pytest.mark.parametrize("tid, reg", [(-1, 5), (0, -1), (0, NUM_ARCH_REGS)])
def test_tags_outside_the_cam_rows_rejected(tid, reg):
    """A negative index would read (or write) another thread's row, or
    another register's cell, through Python's indexing from the end."""
    ts = make_ts()
    ts.insert(0, 1, NUM_ARCH_REGS - 1, 0)       # the last cell of the last row
    for call in (lambda: ts.lookup(tid, reg),
                 lambda: ts.insert(1, tid, reg, 0)):
        with pytest.raises(ValueError, match=f"thread {tid} reg {reg}") as excinfo:
            call()
        assert "\n" not in str(excinfo.value)
    assert ts.resident_count() == 1 and ts.valid[1] is False
    ts.check_invariants()


def test_lookup_of_a_thread_that_never_inserted():
    ts = make_ts()
    assert ts.lookup(5, 0) is None
    assert ts.rows == []            # a read adds no row
    assert ts.resident_regs(5) == [] and ts.resident_count(5) == 0
    ts.insert(0, 2, 7, 0)
    assert len(ts.rows) == 3        # rows 0..2, added by the insert
    assert ts.lookup(2, 7) == 0 and ts.lookup(1, 7) is None


def test_insert_into_occupied_slot_rejected():
    ts = make_ts()
    ts.insert(0, 1, 5, 0)
    with pytest.raises(ValueError):
        ts.insert(0, 2, 6, 0)


def test_evict_invalid_slot_rejected():
    ts = make_ts()
    with pytest.raises(ValueError):
        ts.evict(3)


def test_free_slot_then_full():
    ts = make_ts(capacity=2)
    assert ts.free_slot() == 0
    ts.insert(0, 0, 0, 0)
    assert ts.free_slot() == 1
    ts.insert(1, 0, 1, 0)
    assert ts.free_slot() is None


def test_dirty_tracking_via_touch():
    ts = make_ts()
    ts.insert(0, 0, 3, 0)
    ts.touch(0, is_write=False)
    assert not ts.dirty[0]
    ts.touch(0, is_write=True)
    assert ts.dirty[0]
    assert ts.evict(0)[2] is True


def test_select_victim_excludes_instruction_slots():
    ts = make_ts(capacity=3, policy_cls=PLRU)
    for slot, reg in enumerate((0, 1, 2)):
        ts.insert(slot, 0, reg, 0)
    victim = ts.select_victim(exclude_slots=[0, 1], now=100)
    assert victim == 2


def test_select_victim_skips_inflight_fills():
    ts = make_ts(capacity=2, policy_cls=PLRU)
    ts.insert(0, 0, 0, 0, fill_ready=50)
    ts.insert(1, 0, 1, 0, fill_ready=0)
    assert ts.select_victim([], now=10) == 1      # slot 0 still filling
    assert ts.select_victim([1], now=10) is None  # nothing evictable
    assert ts.select_victim([], now=60) in (0, 1)


def test_resident_counts_per_thread():
    ts = make_ts()
    ts.insert(0, 0, 0, 0)
    ts.insert(1, 0, 1, 0)
    ts.insert(2, 1, 0, 0)
    assert ts.resident_count() == 3
    assert ts.resident_count(0) == 2
    assert ts.resident_count(1) == 1
    assert ts.resident_regs(0) == [0, 1]
    assert ts.occupancy_by_thread() == {0: 2, 1: 1}
    ts.evict(2)                                   # empty slots count for nobody
    assert ts.resident_count(1) == 0
    assert ts.occupancy_by_thread() == {0: 2}


def test_invariants_hold():
    ts = make_ts()
    for i, reg in enumerate((3, 7, 9)):
        ts.insert(i, 0, reg, 0)
    ts.evict(1)
    ts.insert(1, 1, 3, 0)
    ts.check_invariants()


def test_capacity_mismatch_rejected():
    with pytest.raises(ValueError):
        TagStore(8, LRC(4))


# -- rollback queue -----------------------------------------------------------

def test_rollback_push_pop():
    q = RollbackQueue(depth=4)
    q.push([0, 1], is_mem=False)
    q.push([2], is_mem=True)
    assert len(q) == 2
    assert not q.oldest_is_mem
    e = q.pop_commit()
    assert e.slots == (0, 1)
    assert q.oldest_is_mem


def test_rollback_flush_compacts_to_slot_set():
    q = RollbackQueue()
    q.push([0, 1], False)
    q.push([1, 2], True)
    assert q.flush() == {0, 1, 2}
    assert len(q) == 0


def test_rollback_pop_empty_returns_none():
    q = RollbackQueue()
    assert q.pop_commit() is None


def test_rollback_overflow_drops_oldest():
    q = RollbackQueue(depth=2)
    q.push([0], False)
    q.push([1], False)
    q.push([2], False)
    assert q.stats["overflow"] == 1
    assert len(q) == 2
    assert q.pop_commit().slots == (1,)
