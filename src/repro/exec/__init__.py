"""Execution backends for batch simulation (serial / process-parallel).

See :mod:`repro.exec.backends` for the backend contract, the determinism
guarantees, and worker-crash containment; :mod:`repro.exec.workers` for
the one worker function and its task/result shape; and
``docs/architecture.md`` ("Execution backends & the observer surface")
for the design discussion.
"""

from .backends import (ExecBackend, ProcessPoolBackend, SerialBackend,
                       WorkerCrash, resolve_backend)
from .workers import grid_worker, strip_result

__all__ = ["ExecBackend", "ProcessPoolBackend", "SerialBackend",
           "WorkerCrash", "grid_worker", "resolve_backend", "strip_result"]
