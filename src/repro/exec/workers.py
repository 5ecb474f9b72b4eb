"""Top-level worker functions for :class:`~repro.exec.ProcessPoolBackend`.

Process-pool workers are pickled *by reference* (module + name), so they
must live at module top level; their arguments and return values cross a
process boundary, so both must pickle cleanly.  That drives two rules
encoded here:

* **Results are stripped before returning.**  A
  :class:`~repro.system.simulator.RunResult` carries the live telemetry
  session and sanitizer handles, which hold references to cores (bound
  methods, caches) that neither pickle nor mean anything in the parent.
  ``strip_result`` drops them — and folds the session's metric cells and
  attribution down to their plain snapshot dicts, which *do* pickle and
  are all the parent needs for merging.  Everything the sweep machinery
  consumes (config, cycles, instructions, ipc, rf_hit_rate, stats,
  host_profile) survives, so result digests are unaffected.

* **Expected failures are return values, not exceptions.**  The worker
  catches :class:`~repro.errors.SimulationError` into a structured
  :class:`~repro.errors.RunFailure` (picklable primitives) plus a
  best-effort copy of the original exception for fail-fast mode; an
  exception that escapes a worker aborts the whole map, which is reserved
  for genuine driver bugs.

**One task shape, one result shape.**  ``grid_worker`` is the only worker:
its task is always ``(index, cfg, check, retries, timeout_s, max_cycles,
key, obs)`` and its result always ``(result, failure, exc, spans)``.
``obs`` is ``None`` or the spec built by :func:`repro.exec.spans.task_spec`;
with a spec the worker records per-phase spans (queue-wait, setup,
simulate, serialize), touches a heartbeat file the live monitor ages, and
appends row events to the sweep's JSONL event log.  Without one, ``spans``
is empty and nothing is written.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Optional

from ..errors import SimulationError
from .spans import SpanRecorder, now_s

__all__ = ["grid_worker", "strip_result"]


def strip_result(result):
    """Drop the unpicklable session handles from a RunResult (in place).

    Where the ``metrics`` and ``profile`` fields hold the observed-run
    session, its metric cells and attribution are plain data the parent
    consumes (fleet registry merge, attribution reports), so they are
    folded down to their snapshots rather than dropped.
    """
    if result is not None:
        result.telemetry = None
        result.sanitizer = None
        metrics = getattr(result, "metrics", None)
        if hasattr(metrics, "registry"):
            result.metrics = metrics.registry.snapshot()
        profile = getattr(result, "profile", None)
        if hasattr(profile, "profile_snapshot"):
            result.profile = profile.profile_snapshot()
    return result


def _portable_exc(exc: Optional[BaseException]) -> Optional[BaseException]:
    """The exception itself if it survives pickling, else a faithful stand-in.

    Some simulation errors carry rich attachments (e.g. a fault site
    record) that may not reconstruct across a process boundary; fail-fast
    callers still deserve the right exception *type* and message.
    """
    if exc is None:
        return None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # pickle probe: any failure means re-wrap  # noqa: VRC007
        try:
            return type(exc)(str(exc))
        except Exception:  # last-resort stand-in construction  # noqa: VRC007
            return SimulationError(f"{type(exc).__name__}: {exc}")


# -- observability side-channels (best-effort, never fail the run) ----------
def _heartbeat(obs) -> None:
    """Touch this worker's heartbeat file (monitor reads the mtime age)."""
    hb_dir = obs.get("heartbeat_dir")
    if not hb_dir:
        return
    try:
        with open(os.path.join(hb_dir, f"{os.getpid()}.hb"), "w") as f:
            f.write(str(os.getpid()))
    except OSError:
        pass


def _append_event(obs, ev: str, index: int, **fields) -> None:
    """Append one event row to the sweep's JSONL log.

    Single ``O_APPEND`` write of one line — atomic for lines under
    ``PIPE_BUF``, so concurrent workers never interleave mid-row.
    """
    path = obs.get("events_path")
    if not path:
        return
    row = {"ev": ev, "index": index, "pid": os.getpid(),
           "t": round(now_s() - obs["t0"], 6)}
    row.update(fields)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (json.dumps(row, sort_keys=True) + "\n").encode())
        finally:
            os.close(fd)
    except OSError:
        pass


def _measure_serialize(rec: Optional[SpanRecorder], result) -> None:
    """Time one pickle of the stripped result as the ``serialize`` span.

    The pool pickles the return value again on the way out; this measured
    copy is a faithful stand-in for that cost (same object, same protocol).
    """
    if rec is None or result is None:
        return
    try:
        pickle.dumps(result)
    except Exception:  # measurement probe only  # noqa: VRC007
        pass
    rec.phase("serialize")


def grid_worker(task, ship: bool = True):
    """Run one config through the resilient isolated runner.

    ``task`` is :func:`repro.system.sweeps._run_isolated`'s signature plus
    the obs spec: ``(index, cfg, check, retries, timeout_s, max_cycles,
    key, obs)``; returns ``(result, failure, exc, spans)``.  The SIGALRM
    wall-clock watchdog works in a pool too — pool tasks execute on the
    worker process's main thread.

    ``ship`` (the default, and what any ``backend.map`` call gets) makes
    the outcome safe to cross a process boundary: the result is stripped,
    its pickling timed as the ``serialize`` span, and the exception probed
    for portability.  :func:`repro.system.sweeps.run_outcomes` passes
    ``ship=False`` when it runs the task in its own process, so serial
    results keep their live telemetry/sanitizer handles.
    """
    index, cfg, check, retries, timeout_s, max_cycles, key, obs = task
    from ..system.sweeps import _run_isolated
    rec = None
    if obs is not None:
        rec = SpanRecorder(obs, index) if obs.get("spans") else None
        _heartbeat(obs)
        _append_event(obs, "row_start", index, key=key)
        if rec is not None:
            rec.phase("setup")
    result, failure, exc = _run_isolated(index, cfg, check, retries,
                                         timeout_s, max_cycles, key)
    if rec is not None:
        rec.phase("simulate")
    if ship:
        result = strip_result(result)
        _measure_serialize(rec, result)
        exc = _portable_exc(exc)
    if obs is not None:
        _heartbeat(obs)
        if failure is None:
            _append_event(obs, "row_ok", index, key=key,
                          cycles=result.cycles)
        else:
            _append_event(obs, "row_fail", index, key=key,
                          error=failure.error_type,
                          attempts=failure.attempts)
    return result, failure, exc, rec.records if rec else []
