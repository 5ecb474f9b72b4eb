"""Parameter-grid sweeps over RunConfigs, with production-grade resilience.

A small utility for the exploration workflows users actually run: build a
cartesian grid of :class:`RunConfig` variations, simulate them all, and get
results back as rows ready for :func:`repro.stats.reporting.rows_to_csv`
or the ASCII plotters.

The runner is built for multi-hour grids:

* **per-config error isolation** — a config that deadlocks, fails its
  functional check, or escapes a fault is recorded as a structured
  :class:`~repro.errors.RunFailure` on the returned rows' ``failures``
  attribute instead of aborting the whole grid;
* **watchdogs** — a per-config simulated-cycle budget (``max_cycles``) and
  wall-clock timeout (``timeout_s``, SIGALRM-based, main thread only);
* **bounded retry** — transient failures (deadlock, timeout, fault escape)
  are retried up to ``retries`` times under a perturbed seed;
* **checkpoint/resume** — every finished row (success or failure) is
  appended to a crash-safe JSONL journal; ``resume=True`` replays completed
  rows from the journal and re-runs only failed or missing configs.

Example::

    grid = sweep_grid(
        RunConfig(workload="gather", core_type="virec"),
        context_fraction=[0.4, 0.6, 0.8],
        n_threads=[4, 8],
    )
    rows = run_grid(grid, checkpoint="sweep.jsonl", resume=True, retries=1)
    if rows.failures:
        ...  # inspect rows.failures, re-invoke with resume=True later
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence

from .. import workloads
from ..errors import (RunFailure, SimulationError, TRANSIENT_ERRORS,
                      WatchdogTimeout)
from . import simulator
from .config import RunConfig
from .manifest import config_key
from .monitor import SweepObservability, append_event
from .simulator import RunResult


def sweep_grid(base: RunConfig, **axes: Sequence) -> List[RunConfig]:
    """Cartesian product of ``axes`` applied over ``base``.

    Each axis keyword must be a RunConfig field; values are swept in the
    given order, last axis fastest.
    """
    for field in axes:
        if not hasattr(base, field):
            raise ValueError(f"RunConfig has no field {field!r}")
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [base.with_(**dict(zip(names, combo))) for combo in combos]


#: columns every row carries regardless of how the grid was built
_BASE_COLUMNS = ("workload", "core_type", "n_threads", "n_cores",
                 "context_fraction", "policy")
_FIELD_DEFAULTS: Dict = {}


def _config_row(cfg: RunConfig) -> Dict:
    """Flatten a RunConfig into row columns.

    The six classic columns are always present; every other field is
    emitted only when it differs from the RunConfig default, so sweeping
    over ``seed``, ``n_per_thread``, ``dcache_kb``, ``dcache_latency``,
    ``workload_kwargs``, ... yields distinguishable rows without widening
    every table with constant columns.
    """
    if not _FIELD_DEFAULTS:
        _FIELD_DEFAULTS.update(asdict(RunConfig()))
    row: Dict = {k: getattr(cfg, k) for k in _BASE_COLUMNS}
    for key, value in asdict(cfg).items():
        if key in row or value == _FIELD_DEFAULTS.get(key):
            continue
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True, default=str)
        row[key] = value
    return row


def _result_row(cfg: RunConfig, result: RunResult) -> Dict:
    row = _config_row(cfg)
    row["cycles"] = result.cycles
    row["instructions"] = result.instructions
    row["ipc"] = result.ipc
    if result.rf_hit_rate is not None:
        row["rf_hit_rate"] = result.rf_hit_rate
    return row


class GridRows(List[Dict]):
    """Successful sweep rows; isolated failures ride along in ``failures``.

    A plain ``list`` in every other respect, so downstream CSV/plot helpers
    need no changes.  ``resumed`` counts rows replayed from the checkpoint
    journal rather than re-simulated.  When the grid ran observed
    (``observe=``/``metrics=``), ``metrics`` carries the fleet
    :class:`~repro.telemetry.MetricsRegistry` and ``observability`` the
    :class:`~repro.system.monitor.SweepObservability` surface (both None
    otherwise).
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.failures: List[RunFailure] = []
        self.resumed: int = 0
        self.metrics = None
        self.observability = None


# -- watchdogs ---------------------------------------------------------------
@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Raise WatchdogTimeout if the body runs longer than ``seconds``.

    SIGALRM-based, so it only engages on the main thread of a POSIX
    process; elsewhere it degrades to no limit (the cycle-budget watchdog
    still applies).
    """
    usable = (seconds is not None and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _expire(signum, frame):
        # fish the wedged core's progress out of the interrupted stack so
        # the timeout message says where the simulation stopped
        commit_tail = committed = -1
        f = frame
        while f is not None:
            obj = f.f_locals.get("self")
            tail = getattr(obj, "commit_tail", None)
            threads = getattr(obj, "threads", None)
            if tail is not None and threads is not None:
                commit_tail = int(tail)
                committed = sum(int(getattr(th, "instructions", 0))
                                for th in threads)
                break
            f = f.f_back
        raise WatchdogTimeout(f"wall-clock limit of {seconds}s exceeded",
                              commit_tail=commit_tail, committed=committed)

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _build_keys(cfg: RunConfig) -> List[Optional[str]]:
    """The build-memo key of each core's workload build."""
    return [workloads.build_key(*simulator.core_build(cfg, core_id))
            for core_id in range(cfg.n_cores)]


def _run_isolated(index: int, cfg: RunConfig, check: bool, retries: int,
                  timeout_s: Optional[float], max_cycles: Optional[int],
                  key: str):
    """Run one config with watchdogs and bounded reseeded retries.

    Returns ``(result, failure, exception)`` — exactly one of result or
    failure is set; the original exception rides along so fail-fast mode
    can re-raise it untouched.
    """
    if max_cycles is not None and cfg.max_cycles is None:
        cfg = cfg.with_(max_cycles=max_cycles)
    # host-side watchdog, never reaches simulated state
    started = time.monotonic()  # lint: ignore[VRC002]
    attempt = 0
    while True:
        # a retry perturbs the seed: transient failures (deadlock windows,
        # fault-victim choices) depend on it, deterministic ones do not
        run_cfg = cfg if attempt == 0 else cfg.with_(seed=cfg.seed
                                                     + 7919 * attempt)
        try:
            with _wall_clock_limit(timeout_s):
                # resolved at call time: this module attribute is the seam
                # tests patch and ``bench/trace.py`` wraps
                return simulator.run_config(run_cfg, check=check), None, None
        except SimulationError as exc:
            if isinstance(exc, TRANSIENT_ERRORS) and attempt < retries:
                attempt += 1
                continue
            failure = RunFailure.from_exception(
                exc, index=index, config=asdict(cfg), attempts=attempt + 1,
                elapsed_s=time.monotonic() - started,  # lint: ignore[VRC002]
                key=key)
            return None, failure, exc


# -- the one runner ------------------------------------------------------------
def run_outcomes(todo, check: bool, backend, retries: int = 0,
                 timeout_s: Optional[float] = None,
                 max_cycles: Optional[int] = None, obs=None):
    """Run ``(index, cfg, key)`` items on ``backend``, one outcome each.

    Yields ``(result, failure, exc)`` in the order of ``todo`` — exactly
    one of result or failure is set (see :func:`_run_isolated`).
    :func:`repro.system.simulator.sweep` and :func:`run_grid` are the two
    folds over this generator.

    On a :class:`~repro.exec.SerialBackend` the items run lazily and in
    this process, one per ``next()``: a fail-fast caller stops at the first
    failure, the checkpoint journal and ``progress`` advance row by row,
    and results keep their live telemetry/sanitizer handles.  Every other
    backend gets the whole list in one ``backend.map`` and the outcomes are
    yielded once it returns; a :class:`~repro.exec.WorkerCrash` sentinel
    becomes a transient :class:`~repro.errors.RunFailure` naming the lost
    chunk.

    ``obs`` is a :class:`~repro.system.monitor.SweepObservability` or None:
    each task's dispatch instant is stamped on the sweep trace and the
    task carries the obs spec, with which the worker writes its own rows
    to the event log.

    The call owns one :class:`~repro.workloads.BuildMemo` over the
    ``todo`` list: a workload build that several tasks need runs once and
    each run gets its own copy of the memory image.  The memo is active
    only while the sweep's own tasks run — per task on the serial path,
    never across a ``yield``, and around ``backend.map`` otherwise, where
    only an in-process backend's tasks reach it (a pool worker builds
    once per task) — and dies with this generator.
    """
    from ..exec import SerialBackend, WorkerCrash, grid_worker
    memo = workloads.BuildMemo(_build_keys(cfg) for _, cfg, _ in todo)

    def task_of(index: int, cfg: RunConfig, key: str):
        spec = None
        if obs is not None:
            obs.trace.dispatch(index)
            spec = obs.spec
        return (index, cfg, check, retries, timeout_s, max_cycles, key, spec)

    def run_serial(item):
        with memo.active():
            return grid_worker(task_of(*item), ship=False)

    if isinstance(backend, SerialBackend):
        outcomes = (run_serial(item) for item in todo)
    else:
        tasks = [task_of(*item) for item in todo]
        with memo.active():
            outcomes = backend.map(grid_worker, tasks)
    for (index, cfg, key), outcome in zip(todo, outcomes):
        if isinstance(outcome, WorkerCrash):
            err = outcome.to_error()
            failure = RunFailure.from_exception(
                err, index=index, config=asdict(cfg),
                attempts=outcome.attempt, key=key)
            if obs is not None:
                # the worker died before it could report this row itself
                append_event(obs.spec, "row_fail", index=index, key=key,
                             error=failure.error_type)
            yield None, failure, err
            continue
        yield outcome


# -- checkpoint journal ------------------------------------------------------
def _load_journal(path: str) -> Dict[str, Dict]:
    """Latest journal record per config key (later lines win).

    A checkpoint can end in a torn line (the writing process died
    mid-append) or contain foreign garbage; resume must never die on its
    own journal, so malformed lines are skipped with a warning — the
    affected configs simply re-run.
    """
    records: Dict[str, Dict] = {}
    if not os.path.exists(path):
        return records
    torn = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                torn += 1  # torn tail line from a crash mid-append
                continue
            if not isinstance(rec, dict) or "key" not in rec:
                torn += 1
                continue
            records[rec["key"]] = rec
    if torn:
        warnings.warn(
            f"checkpoint {path}: skipped {torn} torn or malformed "
            f"line(s); affected configs will re-run", RuntimeWarning,
            stacklevel=2)
    return records


class _Journal:
    """Append-only, crash-safe JSONL writer (one fsynced line per row)."""

    def __init__(self, path: str) -> None:
        self._f = open(path, "a")

    def append(self, record: Dict) -> None:
        self._f.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._f.flush()
        os.fsync(self._f.fileno())

    def close(self) -> None:
        self._f.close()


def run_grid(configs: Iterable[RunConfig], check: bool = True,
             progress=None, *, on_error: str = "isolate", retries: int = 0,
             timeout_s: Optional[float] = None,
             max_cycles: Optional[int] = None,
             checkpoint: Optional[str] = None,
             resume: bool = False, jobs: Optional[int] = None,
             backend=None, observe=None, manifest=None,
             metrics=None, ledger=None) -> GridRows:
    """Simulate every config; returns flat result rows (config + metrics).

    ``progress`` is an optional callable invoked as ``progress(i, total,
    result)`` after each run (hook for logging long sweeps); for a failed
    config ``result`` is the :class:`~repro.errors.RunFailure`.

    Resilience (see the module docstring): ``on_error="isolate"`` (default)
    records failures on ``rows.failures`` and keeps sweeping, while
    ``"raise"`` restores fail-fast semantics.  ``retries`` bounds reseeded
    retries of transient failures; ``timeout_s``/``max_cycles`` are
    per-config watchdogs.  ``checkpoint`` appends every finished row to a
    JSONL journal; with ``resume=True`` completed rows are replayed from it
    and only failed or missing configs are re-simulated.

    ``jobs``/``backend`` select the execution backend (see
    :mod:`repro.exec`); the pending configs run through
    :func:`run_outcomes`, of which this function is a fold.  Whatever the
    backend, rows, failures, journal records, and progress callbacks arrive
    in config order and the row set is identical to a serial run; the
    journal is written by this (parent) process only.  Parallel fail-fast
    (``on_error="raise"``) raises the first failure in config order after
    the batch completes, rather than aborting mid-grid.

    Observability (all opt-in, see :mod:`repro.system.monitor`):
    ``observe`` is a sweep directory (or prepared
    :class:`~repro.system.monitor.SweepObservability`) that receives the
    live JSONL event log — the one record of the sweep's host time — and
    the merged parent+workers Chrome trace folded from it at sweep end.
    ``manifest`` is a :class:`~repro.system.manifest.RunManifest`
    populated with every freshly simulated result in config order —
    serial and ``jobs=N`` sweeps of the same grid produce identical
    manifests.  ``metrics`` is a
    fleet :class:`~repro.telemetry.MetricsRegistry` accumulating rows by
    status and every worker-shipped per-run metrics snapshot (created
    automatically when ``observe`` is set); it is exposed as
    ``rows.metrics``.  Per-stage host wall-clock is not counted here: the
    report sums the manifest's ``host_profiles``.

    ``ledger`` (a path or an open :class:`~repro.ledger.Recorder`) appends
    every freshly simulated successful row to the run ledger
    (``source="grid"``); resumed rows are not re-recorded (they carry no
    new measurement).  When ``backend`` is a
    :class:`~repro.ledger.CachedBackend` the argument is ignored — the
    cache records its own misses — and the fleet metrics registry (when
    one exists) is bound to the cache so ``ledger.hit``/``ledger.miss``/
    ``ledger.stale`` land in the sweep's metrics snapshot.
    """
    if on_error not in ("raise", "isolate"):
        raise ValueError(f"on_error must be 'raise' or 'isolate', "
                         f"not {on_error!r}")
    if resume and not checkpoint:
        raise ValueError("resume=True requires a checkpoint path")
    from ..exec import resolve_backend
    backend = resolve_backend(jobs, backend)
    configs = list(configs)
    previous = _load_journal(checkpoint) if (checkpoint and resume) else {}
    journal = _Journal(checkpoint) if checkpoint else None
    obs = None
    if observe is not None:
        obs = SweepObservability.ensure(observe)
    if metrics is None and obs is not None:
        from ..telemetry import MetricsRegistry
        metrics = MetricsRegistry()
    rows = GridRows()
    rows.metrics = metrics
    rows.observability = obs
    keys = [config_key(cfg) for cfg in configs]
    recorder = owns_recorder = None
    if ledger is not None:
        from ..ledger.store import open_recorder
        recorder, owns_recorder = open_recorder(ledger, backend)
    if metrics is not None and hasattr(backend, "bind_metrics"):
        # a CachedBackend adopts the fleet registry so its hit/miss/stale
        # counters land in the sweep's metrics snapshot
        backend.bind_metrics(metrics)

    # one pass decides which rows replay from the journal and which run
    replayed: Dict[int, Dict] = {}
    todo = []
    for i, cfg in enumerate(configs):
        done = previous.get(keys[i])
        if done is not None and done.get("status") == "ok":
            if "row" in done:
                replayed[i] = done["row"]
                continue
            # an "ok" record without its payload (partial write from an
            # older crash): treat the config as not-yet-run
            warnings.warn(
                f"checkpoint record for {keys[i]} has no row; re-running",
                RuntimeWarning, stacklevel=2)
        todo.append((i, cfg, keys[i]))

    def _fold_fleet(result=None, status: str = "ok") -> None:
        """Accumulate one finished row into the fleet registry."""
        if metrics is None:
            return
        metrics.counter("sweep_rows_total",
                        "grid rows by final status").inc(status=status)
        snap = getattr(result, "metrics", None)
        if snap is not None:
            # the live session of a serial run, or a worker's snapshot
            metrics.merge(getattr(snap, "registry", snap))

    if obs is not None:
        append_event(obs.spec, "sweep_start", total=len(configs),
                     jobs=backend.jobs)
    outcomes = run_outcomes(todo, check, backend, retries, timeout_s,
                            max_cycles, obs)
    try:
        for i, cfg in enumerate(configs):
            key = keys[i]
            if i in replayed:
                rows.append(replayed[i])
                rows.resumed += 1
                _fold_fleet(status="resumed")
                if obs is not None:
                    append_event(obs.spec, "row_resumed", index=i, key=key)
                if progress is not None:
                    progress(i + 1, len(configs), None)
                continue
            result, failure, exc = next(outcomes)
            if result is not None:
                row = _result_row(cfg, result)
                rows.append(row)
                if manifest is not None:
                    manifest.add(result)
                if recorder is not None:
                    recorder.record_result(result, source="grid",
                                           checked=check)
                _fold_fleet(result=result, status="ok")
                if journal is not None:
                    journal.append({"key": key, "index": i, "status": "ok",
                                    "row": row})
                if progress is not None:
                    progress(i + 1, len(configs), result)
                continue
            _fold_fleet(status="crash"
                        if failure.error_type == "WorkerCrashError"
                        else "fail")
            if journal is not None:
                journal.append({"key": key, "index": i, "status": "fail",
                                "failure": failure.as_dict()})
            if on_error == "raise":
                raise exc
            rows.failures.append(failure)
            if progress is not None:
                progress(i + 1, len(configs), failure)
    finally:
        if journal is not None:
            journal.close()
        if owns_recorder and recorder is not None:
            recorder.close()
        if obs is not None:
            append_event(obs.spec, "sweep_end", ok=len(rows) - rows.resumed,
                         failed=len(rows.failures), resumed=rows.resumed)
            obs.write_trace(metadata={"rows": len(rows),
                                      "failures": len(rows.failures)})
            if metrics is not None:
                obs.write_metrics(metrics)
    return rows


def best_by(rows: Sequence[Dict], metric: str = "ipc",
            group: Sequence[str] = ("workload",)) -> List[Dict]:
    """Best row per group key (highest ``metric``).

    Rows missing ``metric`` are skipped — a mixed banked/virec grid has no
    ``rf_hit_rate`` on the banked rows, and failed configs have no metrics
    at all.
    """
    best: Dict[tuple, Dict] = {}
    for row in rows:
        if metric not in row:
            continue
        key = tuple(row.get(g) for g in group)
        if key not in best or row[metric] > best[key][metric]:
            best[key] = row
    return [best[k] for k in sorted(best)]
