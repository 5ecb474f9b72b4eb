"""A sweep builds each distinct workload once.

``run_outcomes`` opens a :class:`~repro.workloads.BuildMemo` over its task
list: configs that differ only in the register-file side share one build
of the workload (program, decode, compiled tables, metadata) and each run
gets its own copy of the memory image.  Sharing must be invisible: every
result equals the one a bare ``run_config`` gives, by stats digest and by
every observed artifact, and the shared template is never written.
"""

import dataclasses
from contextlib import contextmanager

import pytest

from repro import workloads
from repro.exec import SerialBackend
from repro.experiments.common import run_many
from repro.system import RunConfig, run_config, sweep
from repro.system.manifest import config_key
from repro.system.sweeps import run_outcomes
from repro.workloads import registry

from ..core.test_engine_equivalence import stats_digest
from ..helpers import time_limit
from ..telemetry.test_artifact_digests import artifacts

GATHER = RunConfig(workload="gather", n_threads=4, n_per_thread=8)

#: one workload under every core type the paper compares: one build
CORE_GRID = [
    GATHER.with_(core_type="banked"),
    GATHER.with_(core_type="virec", context_fraction=0.8),
    GATHER.with_(core_type="virec", context_fraction=0.4),
    GATHER.with_(core_type="nsf"),
    GATHER.with_(core_type="prefetch-full"),
    GATHER.with_(core_type="prefetch-exact"),
    GATHER.with_(core_type="fgmt"),
    GATHER.with_(core_type="swctx"),
]


@contextmanager
def counted_builds():
    """Count every registered builder's calls in this process; yields the
    list of instances the builders returned (the memo's templates)."""
    built = []
    table = registry._REGISTRY
    saved = dict(table)

    def counting(build):
        def wrapper(**kwargs):
            inst = build(**kwargs)
            built.append(inst)
            return inst
        return wrapper

    for name, spec in saved.items():
        table[name] = dataclasses.replace(spec, build=counting(spec.build))
    try:
        yield built
    finally:
        table.update(saved)


def bare_digests(configs):
    return [stats_digest(run_config(cfg)) for cfg in configs]


def outcome_digest(cfg_result):
    """Digest of a result, or the failure's type and message."""
    if isinstance(cfg_result, Exception):
        return f"error:{type(cfg_result).__name__}:{cfg_result}"
    return stats_digest(cfg_result)


# -- build count ---------------------------------------------------------------
def test_serial_sweep_builds_once():
    with time_limit(300):
        with counted_builds() as built:
            results = sweep(CORE_GRID)
        assert len(built) == 1
        assert [stats_digest(r) for r in results] == bare_digests(CORE_GRID)


def test_cached_run_many_builds_once(tmp_path):
    ledger = str(tmp_path / "ledger.sqlite")
    with time_limit(300):
        with counted_builds() as built:
            results = run_many(CORE_GRID, cache=ledger)
        assert len(built) == 1
        assert [stats_digest(r) for r in results] == bare_digests(CORE_GRID)


def test_pool_workers_build_per_task():
    """Pool workers build once per task; the parent builds nothing, and
    the results equal the serial sweep's."""
    with time_limit(300):
        with counted_builds() as built:
            pooled = sweep(CORE_GRID, jobs=2)
        assert built == []
        assert [stats_digest(r) for r in pooled] == bare_digests(CORE_GRID)


def test_bare_run_config_builds_every_time():
    with counted_builds() as built:
        run_config(CORE_GRID[0])
        run_config(CORE_GRID[0])
    assert len(built) == 2


# -- equivalence ---------------------------------------------------------------
def test_every_workload_matches_bare_runs():
    grid = [RunConfig(workload=name, core_type=core, n_threads=4,
                      n_per_thread=8, context_fraction=0.4)
            for name in workloads.names() for core in ("banked", "virec")]
    with time_limit(600):
        with counted_builds() as built:
            shared = sweep(grid)
        assert len(built) == len(workloads.names())
        assert [stats_digest(r) for r in shared] == bare_digests(grid)


def test_ooo_shares_the_one_thread_build():
    """The ooo host builds the whole problem as one thread through the
    memo: Figure 1's in-order and ooo points are one build."""
    base = GATHER.with_(n_threads=1, n_per_thread=32)
    grid = [base.with_(core_type="inorder"), base.with_(core_type="ooo")]
    with time_limit(300):
        with counted_builds() as built:
            shared = sweep(grid)
        assert len(built) == 1
        assert [stats_digest(r) for r in shared] == bare_digests(grid)


def test_schedule_is_a_build_input():
    """``schedule`` replaces the built program by its list schedule, on
    every core type, and keys a build of its own."""
    from repro.compiler import schedule_program
    plain = workloads.build("spmv", 4, 8, 43, {})
    sched = workloads.build("spmv", 4, 8, 43, {"schedule": True})
    assert (sched.program.instructions
            == schedule_program(plain.program).program.instructions)
    assert sched.program.instructions != plain.program.instructions
    spmv = RunConfig(workload="spmv", n_threads=4, n_per_thread=8, seed=43)
    grid = [spmv.with_(core_type=core, workload_kwargs=kwargs)
            for core in ("banked", "ooo")
            for kwargs in ({}, {"schedule": True})]
    with time_limit(300):
        with counted_builds() as built:
            shared = sweep(grid)
        assert len(built) == 4
        assert [stats_digest(r) for r in shared] == bare_digests(grid)
    assert shared[0].cycles != shared[1].cycles


def test_dead_hint_run_first_on_a_shared_program():
    """A dead-hint policy annotates the shared decode; the runs after it
    (non-dead policies included) must not see a difference."""
    grid = [GATHER.with_(core_type="virec", context_fraction=0.4, policy=p)
            for p in ("dead-elide", "dead-first", "lrc", "plru")]
    with time_limit(300):
        with counted_builds() as built:
            shared = sweep(grid)
        assert len(built) == 1
        assert [stats_digest(r) for r in shared] == bare_digests(grid)


def test_fault_injected_config_matches_bare_run():
    faults = {"rf_rate": 2e-4, "scheme": "ecc", "seed": 3}
    grid = [GATHER.with_(core_type="virec", context_fraction=0.4),
            GATHER.with_(core_type="virec", context_fraction=0.4,
                         faults=faults),
            GATHER.with_(core_type="virec", context_fraction=0.4,
                         faults={**faults, "scheme": "none"})]

    def bare(cfg):
        try:
            return run_config(cfg)
        except Exception as exc:  # the same failure must fire in the sweep
            return exc

    with time_limit(300):
        shared = sweep(grid, on_error="isolate")
        expected = [outcome_digest(bare(cfg)) for cfg in grid]
    got = []
    failures = iter(shared.failures)
    for result in shared:
        if result is None:
            f = next(failures)
            got.append(f"error:{f.error_type}:{f.message}")
        else:
            got.append(stats_digest(result))
    assert got == expected


def test_two_core_config_shares_per_core_builds():
    grid = [GATHER.with_(core_type=core, n_cores=2)
            for core in ("banked", "virec", "fgmt")]
    with time_limit(300):
        with counted_builds() as built:
            shared = sweep(grid)
        # one build per core seed, shared by the three configs
        assert len(built) == 2
        assert [stats_digest(r) for r in shared] == bare_digests(grid)


def test_observed_runs_match_bare_artifacts():
    observe = dict(telemetry={"events": True, "interval": 100,
                              "pipeline_trace": True},
                   metrics=True, profile=True)
    grid = [GATHER.with_(core_type="virec", context_fraction=0.8,
                         n_per_thread=32, **observe),
            GATHER.with_(core_type="fgmt", n_per_thread=32, **observe)]
    with time_limit(300):
        shared = sweep(grid)
        assert ([artifacts(r) for r in shared]
                == [artifacts(run_config(cfg)) for cfg in grid])


# -- isolation -----------------------------------------------------------------
def test_template_memory_is_never_written():
    grid = CORE_GRID[:3]
    with time_limit(300):
        with counted_builds() as built:
            sweep(grid)
        fresh = workloads.get("gather").build(n_threads=4, n_per_thread=8,
                                              seed=GATHER.seed)
    (template,) = built
    assert template.memory._words == fresh.memory._words


def test_same_config_twice_gives_equal_checked_runs():
    cfg = GATHER.with_(core_type="virec", context_fraction=0.4)
    with time_limit(300):
        first, second = sweep([cfg, cfg], check=True)
    assert first.correct and second.correct
    assert stats_digest(first) == stats_digest(second)


# -- scope ---------------------------------------------------------------------
def test_memo_is_off_between_serial_outcomes_and_drops_templates(monkeypatch):
    """The memo is active only while a task runs, never across a yield; a
    template is dropped when the last task that needs it takes its copy."""
    memos = []

    class Recording(workloads.BuildMemo):
        def __init__(self, needs):
            super().__init__(needs)
            memos.append(self)

    monkeypatch.setattr(workloads, "BuildMemo", Recording)
    spmv = GATHER.with_(workload="spmv")
    grid = [GATHER.with_(core_type="banked"), GATHER.with_(core_type="fgmt"),
            spmv.with_(core_type="banked"), spmv.with_(core_type="fgmt")]
    todo = [(i, cfg, config_key(cfg)) for i, cfg in enumerate(grid)]
    held = []
    with time_limit(300):
        for result, failure, _ in run_outcomes(todo, True, SerialBackend()):
            assert failure is None and result.correct
            assert registry._MEMO.get() is None
            held.append(len(memos[0]._templates))
    # gather's template goes with its second task, spmv's likewise
    assert held == [1, 0, 1, 0]
    # a build outside the sweep is not served from its memo
    with counted_builds() as built:
        run_config(grid[0])
    assert len(built) == 1


def test_build_key_skips_unserializable_kwargs():
    assert workloads.build_key("gather", 4, 8, 7, {"x": object()}) is None
    assert (workloads.build_key("gather", 4, 8, 7, {"b": 1, "a": 2})
            == workloads.build_key("gather", 4, 8, 7, {"a": 2, "b": 1}))
    memo = workloads.BuildMemo([[None], [None]])
    made = []
    memo.instance(None, lambda: made.append(1))
    memo.instance(None, lambda: made.append(1))
    assert made == [1, 1] and not memo._templates


@pytest.mark.parametrize("uses", [1, 2, 3])
def test_template_lives_until_its_last_use(uses):
    key = workloads.build_key("gather", 4, 8, 7, {})
    memo = workloads.BuildMemo([[key]] * uses)
    inst = workloads.get("gather").build(n_threads=4, n_per_thread=8, seed=7)
    if uses == 1:
        assert memo.instance(key, lambda: inst) is inst
        assert not memo._templates
        return
    for use in range(uses):
        got = memo.instance(key, lambda: inst)
        assert got.program is inst.program
        assert got.memory is not inst.memory
        assert got.memory._words == inst.memory._words
        assert bool(memo._templates) == (use < uses - 1)
