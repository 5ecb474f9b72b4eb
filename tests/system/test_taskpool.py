"""Tests for the task-pool offload extension (steady-state scheduling)."""

import pytest

from repro.system.taskpool import Task, TaskPool, run_taskpool


def test_pool_fifo_and_dispatch_count():
    pool = TaskPool()
    pool.tasks.extend(Task(init_regs={"k": i}) for i in range(3))
    assert len(pool) == 3
    assert pool.pop().init_regs == {"k": 0}
    assert pool.dispatched == 1
    pool.pop(), pool.pop()
    assert pool.pop() is None
    assert pool.dispatched == 3


def test_taskpool_virec_all_tasks_complete_correctly():
    stats, inst = run_taskpool(workload="gather", core_type="virec",
                               hw_threads=4, n_tasks=12, n_per_task=12)
    assert stats["tasks_redispatched"] == 8  # 12 tasks - 4 initial
    assert stats["task_context_drops"] >= 8
    # every logical task's output verified by run_taskpool's checker


def _views_agree(ts):
    """The CAM rows (``resident_regs``, ``resident_count()``), the stored
    count and the per-slot owner/areg columns describe one register set."""
    columns = {}
    for slot, tid in enumerate(ts.owner):
        if tid >= 0:
            assert ts.valid[slot]
            columns.setdefault(tid, []).append(ts.areg[slot])
    for tid, regs in columns.items():
        assert ts.resident_regs(tid) == sorted(regs)
        assert ts.resident_count(tid) == len(regs)
        assert all(ts.owner[ts.lookup(tid, reg)] == tid for reg in regs)
    assert ts.occupancy_by_thread() == {
        tid: len(regs) for tid, regs in sorted(columns.items())}
    assert ts.resident_count() == sum(map(len, columns.values()))
    ts.check_invariants()


def test_register_views_agree_across_redispatch(monkeypatch):
    """A redispatch drops the finished task's registers without spilling
    them: before and after every drop the rows and the columns agree, and
    nothing of the dropped thread stays resident."""
    from repro.virec import ViReCCore

    drop = ViReCCore.drop_thread_registers
    dropped = []

    def checked_drop(core, thread):
        ts = core.vrmu.tagstore
        _views_agree(ts)
        dropped.append(ts.resident_count(thread.tid))
        drop(core, thread)
        assert ts.resident_regs(thread.tid) == []
        assert ts.resident_count(thread.tid) == 0
        assert thread.tid not in ts.occupancy_by_thread()
        _views_agree(ts)

    monkeypatch.setattr(ViReCCore, "drop_thread_registers", checked_drop)
    stats, _ = run_taskpool(workload="gather", core_type="virec",
                            hw_threads=4, n_tasks=12, n_per_task=12,
                            context_fraction=0.6)
    assert len(dropped) == stats["task_context_drops"] >= 8
    assert any(dropped)             # the drops had something to drop


def test_taskpool_banked_all_tasks_complete_correctly():
    stats, inst = run_taskpool(workload="vecadd", core_type="banked",
                               hw_threads=4, n_tasks=10, n_per_task=12)
    assert stats["tasks_redispatched"] == 6


def test_taskpool_rejects_unknown_core():
    with pytest.raises(ValueError):
        run_taskpool(core_type="ooo")


def test_more_hw_threads_help_when_pool_is_deep():
    """The thread-scalability claim in steady state: ViReC with 10 hardware
    threads drains a deep task pool no slower than with 2."""
    few, _ = run_taskpool(workload="gather", core_type="virec",
                          hw_threads=2, n_tasks=12, n_per_task=16)
    many, _ = run_taskpool(workload="gather", core_type="virec",
                           hw_threads=8, n_tasks=12, n_per_task=16)
    assert many["cycles"] < few["cycles"]


def test_virec_exceeds_banked_thread_cap():
    """ViReC runs 10 hardware threads; banked is capped at 8 and must
    two-level schedule the same batch."""
    virec, _ = run_taskpool(workload="gather", core_type="virec",
                            hw_threads=10, n_tasks=20, n_per_task=12)
    banked, _ = run_taskpool(workload="gather", core_type="banked",
                             hw_threads=8, n_tasks=20, n_per_task=12)
    assert virec["tasks_redispatched"] == 10
    assert banked["tasks_redispatched"] == 12
    # both finish; relative speed depends on contention (no assertion)
    assert virec["cycles"] > 0 and banked["cycles"] > 0


def test_dispatch_latency_visible():
    fast, _ = run_taskpool(workload="vecadd", core_type="virec",
                           hw_threads=2, n_tasks=8, n_per_task=8,
                           dispatch_latency=0)
    slow, _ = run_taskpool(workload="vecadd", core_type="virec",
                           hw_threads=2, n_tasks=8, n_per_task=8,
                           dispatch_latency=500)
    assert slow["cycles"] > fast["cycles"]
