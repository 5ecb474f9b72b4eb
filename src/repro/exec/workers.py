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
key, obs)`` and its result always ``_run_isolated``'s ``(result, failure,
exc)``.  ``obs`` is ``None`` or the sweep's spec
(:attr:`repro.system.monitor.SweepObservability.spec`: ``t0`` and
``events_path``); with a spec the worker appends ``row_start`` at pickup
and ``row_ok`` / ``row_fail`` at the end to the sweep's event log, the
one record of its host time.  Without one, nothing is written.
"""

from __future__ import annotations

import pickle
from typing import Optional

from ..errors import SimulationError
from ..system.monitor import append_event, now_s

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


def grid_worker(task, ship: bool = True):
    """Run one config through the resilient isolated runner.

    ``task`` is :func:`repro.system.sweeps._run_isolated`'s signature plus
    the obs spec: ``(index, cfg, check, retries, timeout_s, max_cycles,
    key, obs)``; returns ``(result, failure, exc)``.  The SIGALRM
    wall-clock watchdog works in a pool too — pool tasks execute on the
    worker process's main thread.

    ``ship`` (the default, and what any ``backend.map`` call gets) makes
    the outcome safe to cross a process boundary: the result is stripped
    and the exception probed for portability.  An observed task also
    pickles the stripped result once — the pool pickles it again on the
    way out, so this copy is a faithful stand-in for that cost — and its
    end row carries the whole shipping time as ``serialize_s``.
    :func:`repro.system.sweeps.run_outcomes` passes ``ship=False`` when it
    runs the task in its own process, so serial results keep their live
    telemetry/sanitizer handles.
    """
    index, cfg, check, retries, timeout_s, max_cycles, key, obs = task
    from ..system.sweeps import _run_isolated
    if obs is not None:
        append_event(obs, "row_start", index=index, key=key)
    result, failure, exc = _run_isolated(index, cfg, check, retries,
                                         timeout_s, max_cycles, key)
    fields = {"index": index, "key": key}
    if ship:
        shipped = now_s()
        result = strip_result(result)
        exc = _portable_exc(exc)
        if obs is not None:
            try:
                pickle.dumps(result)
            except Exception:  # measurement probe only  # noqa: VRC007
                pass
            fields["serialize_s"] = round(now_s() - shipped, 6)
    if obs is not None:
        if failure is None:
            append_event(obs, "row_ok", cycles=result.cycles, **fields)
        else:
            append_event(obs, "row_fail", error=failure.error_type,
                         attempts=failure.attempts, **fields)
    return result, failure, exc
