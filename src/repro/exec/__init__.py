"""Execution backends for batch simulation (serial / process-parallel).

See :mod:`repro.exec.backends` for the backend contract, the determinism
guarantees, and worker-crash containment; :mod:`repro.exec.spans` for
cross-process span tracing; and ``docs/architecture.md`` ("Execution
backends & instrumentation bus") for the design discussion.
"""

from .backends import (ExecBackend, ProcessPoolBackend, SerialBackend,
                       WorkerCrash, resolve_backend)
from .spans import SpanRecorder, SweepTrace, task_spec
from .workers import grid_worker, strip_result

__all__ = ["ExecBackend", "ProcessPoolBackend", "SerialBackend",
           "SpanRecorder", "SweepTrace", "WorkerCrash", "grid_worker",
           "resolve_backend", "strip_result", "task_spec"]
