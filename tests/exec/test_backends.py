"""The execution-backend determinism contract.

The hard guarantee of :mod:`repro.exec`: a sweep fanned out over worker
processes produces *exactly* the results of the same sweep run serially —
same values, same order, same failure placement — so ``jobs=N`` is purely
a wall-clock knob.  These tests byte-compare manifest digests between the
two paths over a mixed core-type grid, and check the failure-isolation
alignment that :class:`~repro.system.ResultList` promises.

(Worker processes use the ``spawn`` start method and re-import ``repro``
from scratch, which is why these tests go through the library entry points
rather than closures — closures don't pickle.)
"""

import os

import pytest

from repro.errors import RunFailure, SimulationError
from repro.exec import (ExecBackend, ProcessPoolBackend, SerialBackend,
                        grid_worker, resolve_backend, strip_result)
from repro.system import (RunConfig, RunManifest, config_key, run_config,
                          run_grid, sweep)

from ..helpers import time_limit

#: one config per engine flavour — CGMT banked, ViReC, barrel FGMT, and the
#: software-switch baseline — so the digest comparison crosses every
#: subclass of the per-instruction step.
MIXED_GRID = [
    RunConfig(workload="gather", core_type="banked", n_threads=4,
              n_per_thread=8),
    RunConfig(workload="gather", core_type="virec", n_threads=4,
              n_per_thread=8, context_fraction=0.6),
    RunConfig(workload="stride", core_type="fgmt", n_threads=4,
              n_per_thread=8),
    RunConfig(workload="gather", core_type="swctx", n_threads=2,
              n_per_thread=8),
]


def digest_of(results) -> str:
    m = RunManifest()
    for r in results:
        m.add(r)
    return m.results_digest


# ------------------------------------------------------- backend resolution
def test_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert isinstance(resolve_backend(), SerialBackend)
    assert isinstance(resolve_backend(jobs=None), SerialBackend)


def test_jobs_one_is_serial():
    assert isinstance(resolve_backend(jobs=1), SerialBackend)


def test_jobs_n_is_process_pool():
    b = resolve_backend(jobs=3)
    assert isinstance(b, ProcessPoolBackend)
    assert b.jobs == 3


def test_jobs_zero_means_all_cores():
    ncpu = os.cpu_count() or 1
    b = resolve_backend(jobs=0)
    if ncpu > 1:
        assert isinstance(b, ProcessPoolBackend)
        assert b.jobs == ncpu
    else:  # a 1-cpu host has no parallelism to offer
        assert isinstance(b, SerialBackend)


def test_env_var_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    b = resolve_backend()
    assert isinstance(b, ProcessPoolBackend)
    assert b.jobs == 2
    # an explicit jobs= beats the environment
    assert isinstance(resolve_backend(jobs=1), SerialBackend)
    # a value that is not a job count names the variable, not int()
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match=r"REPRO_JOBS must be .* not 'two'"):
        resolve_backend()


def test_explicit_backend_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    serial = SerialBackend()
    assert resolve_backend(backend=serial) is serial


def test_negative_jobs_rejected():
    with pytest.raises(ValueError, match="jobs"):
        ProcessPoolBackend(jobs=-1)
    # ... and does not silently mean serial on the way in
    with pytest.raises(ValueError, match=r"jobs must be 0 \(all cores\)"):
        resolve_backend(jobs=-1)


def test_backends_are_exec_backends():
    assert isinstance(SerialBackend(), ExecBackend)
    assert isinstance(ProcessPoolBackend(jobs=2), ExecBackend)


# ------------------------------------------------------------ map semantics
def test_serial_map_preserves_order():
    out = SerialBackend().map(lambda x: x * x, [3, 1, 2])
    assert out == [9, 1, 4]


def test_pool_single_item_runs_inline():
    # one item (or jobs=1) short-circuits to in-process execution, so even
    # an unpicklable closure works — no worker is spawned
    seen = []

    def fn(x):
        seen.append(x)
        return x + 1

    assert ProcessPoolBackend(jobs=4).map(fn, [41]) == [42]
    assert seen == [41]


def test_strip_result_drops_process_local_attachments():
    cfg = RunConfig(workload="gather", core_type="virec",
                    n_threads=2, n_per_thread=8,
                    telemetry={"events": True, "interval": 50},
                    sanitize=True)
    r = run_config(cfg)
    assert r.telemetry is not None and r.sanitizer is not None
    s = strip_result(r)
    assert s.telemetry is None and s.sanitizer is None
    assert s.cycles == r.cycles
    # the runner strips exactly when a result crosses a process boundary:
    # a serial sweep hands back the live sessions, a pooled one cannot
    grid = [cfg, cfg.with_(seed=8)]
    with time_limit(300):
        serial = sweep(grid)
        pooled = sweep(grid, jobs=2)
    assert all(x.telemetry is not None and x.sanitizer is not None
               for x in serial)
    assert serial[0].telemetry.event_count > 0
    assert all(x.telemetry is None and x.sanitizer is None for x in pooled)
    assert [x.cycles for x in pooled] == [x.cycles for x in serial]


def task_of(index, cfg, check=True):
    """The one task shape: no retries, no watchdogs, no obs spec."""
    return (index, cfg, check, 0, None, None, config_key(cfg), None)


def test_grid_worker_tags_outcomes():
    result, failure, exc = grid_worker(task_of(0, MIXED_GRID[0]))
    assert result.cycles > 0 and failure is None and exc is None
    result, failure, exc = grid_worker(
        task_of(5, MIXED_GRID[0].with_(max_cycles=2)))
    assert result is None
    assert isinstance(failure, RunFailure) and failure.index == 5
    assert isinstance(exc, SimulationError)


# ----------------------------------------------- serial vs parallel digests
def test_sweep_parallel_digest_matches_serial():
    """The acceptance contract: byte-identical result digests."""
    with time_limit(300):
        serial = sweep(MIXED_GRID)
        parallel = sweep(MIXED_GRID, jobs=2)
    assert digest_of(parallel) == digest_of(serial)
    assert [r.cycles for r in parallel] == [r.cycles for r in serial]
    assert ([r.stats.as_dict() for r in parallel]
            == [r.stats.as_dict() for r in serial])


def test_run_grid_parallel_rows_match_serial():
    with time_limit(300):
        serial = run_grid(MIXED_GRID)
        parallel = run_grid(MIXED_GRID, jobs=2)
    assert parallel == serial
    assert parallel.failures == [] and serial.failures == []


def test_isolate_alignment_under_pool():
    """``on_error="isolate"``: placeholder positions and failure indices of
    a parallel sweep line up exactly with the serial ones."""
    grid = [
        MIXED_GRID[0],
        MIXED_GRID[1].with_(max_cycles=2),   # trips the cycle watchdog
        MIXED_GRID[2],
        MIXED_GRID[3].with_(max_cycles=2),
        MIXED_GRID[0].with_(workload="stride"),
    ]
    with time_limit(300):
        serial = sweep(grid, on_error="isolate")
        parallel = sweep(grid, on_error="isolate", jobs=2)
        rows = run_grid(grid)
        rows_parallel = run_grid(grid, jobs=2)
    holes = [i for i, r in enumerate(serial) if r is None]
    assert holes == [1, 3]
    assert [i for i, r in enumerate(parallel) if r is None] == holes
    assert [f.index for f in parallel.failures] == \
        [f.index for f in serial.failures] == holes
    assert [f.error_type for f in parallel.failures] == \
        [f.error_type for f in serial.failures]
    ok = [i for i in range(len(grid)) if i not in holes]
    assert [parallel[i].cycles for i in ok] == [serial[i].cycles for i in ok]
    # sweep() and run_grid() are folds over one runner: the same failures,
    # field for field, whichever fold and whichever backend reports them
    expected = [(i, "DeadlockError", config_key(grid[i]), 1) for i in holes]
    for failures in (serial.failures, parallel.failures, rows.failures,
                     rows_parallel.failures):
        assert [(f.index, f.error_type, f.key, f.attempts)
                for f in failures] == expected
    assert [r["cycles"] for r in rows] == [r["cycles"] for r in rows_parallel] \
        == [serial[i].cycles for i in ok]


def test_parallel_raise_propagates_first_failure_in_config_order():
    grid = [MIXED_GRID[0], MIXED_GRID[1].with_(max_cycles=2), MIXED_GRID[2]]
    with time_limit(300):
        with pytest.raises(SimulationError):
            sweep(grid, on_error="raise", jobs=2)
