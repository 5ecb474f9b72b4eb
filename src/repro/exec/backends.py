"""Execution backends: how a batch of independent runs is mapped.

The sweep machinery (``repro.system.simulator.sweep``,
``repro.system.sweeps.run_grid``, the experiment drivers) describes *what*
to simulate — a list of independent :class:`~repro.system.config.RunConfig`
items — and delegates *how* to one of these backends:

:class:`SerialBackend`
    In-process, one item at a time, in order.  The default, and the only
    mode with zero caveats (tracebacks point at the real frame, monkey-
    patched entry points apply, sessions/handles stay usable).

:class:`ProcessPoolBackend`
    A ``concurrent.futures.ProcessPoolExecutor`` over ``jobs`` worker
    processes using the **spawn** start method (fork-safety: the simulator
    keeps large object graphs and open files the child must not inherit
    mid-mutation).  Items are submitted as explicit per-chunk futures and
    results are returned **in input order**, so a parallel sweep is a
    drop-in replacement for a serial one: same result list, same digest.

Determinism contract: for pure functions of their item, ``map`` returns
results byte-identical to SerialBackend regardless of ``jobs``/chunking —
ordering is by input position, never completion time.  The simulator holds
its end of the bargain by keeping every run self-contained (per-run RNGs
seeded from the config, no dependence on set/dict iteration order of
unstable keys — lint rule VRC003).

Crash containment: an abrupt worker death (segfault, OOM kill,
``os._exit``) breaks a ``ProcessPoolExecutor`` permanently — every pending
future raises ``BrokenProcessPool`` and, naively, one bad run aborts the
whole sweep with no indication of *which* item was at fault.
:meth:`ProcessPoolBackend.map` instead marks the likely-culpable chunk's
items with :class:`WorkerCrash` sentinel records (carrying the chunk's
input positions and the executor's exit context), respawns a fresh pool,
and retries the remaining broken chunks.  Each respawn permanently
resolves at least one chunk, so the loop converges; a mis-blamed innocent
chunk's true culprit crashes again on retry and is then blamed correctly.
The sweep layer converts sentinels into per-config
:class:`~repro.errors.RunFailure` records (see
:meth:`WorkerCrash.to_error`).

Worker functions passed to :meth:`ProcessPoolBackend.map` must be module
top-level callables (picklable by reference) and must themselves catch
expected per-item failures into return values (see ``repro.exec.workers``)
— an exception escaping a worker aborts the whole map, which is the right
behavior only for driver bugs.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ExecBackend", "ProcessPoolBackend", "SerialBackend",
           "WorkerCrash", "resolve_backend"]


class WorkerCrash:
    """Sentinel left at an item's result position when its worker died.

    Not an exception: ``map`` still returns a full, input-ordered result
    list, and the caller decides whether a lost item is fatal.  The true
    culprit inside a multi-item chunk is unknowable (the worker never
    reported back), so the whole chunk is marked and ``chunk_indices``
    names every input position that went down with it.
    """

    __slots__ = ("index", "chunk_indices", "context", "attempt")

    def __init__(self, index: int, chunk_indices: List[int],
                 context: str = "", attempt: int = 1) -> None:
        self.index = index
        self.chunk_indices = list(chunk_indices)
        self.context = context
        self.attempt = attempt

    def to_error(self):
        """The :class:`~repro.errors.WorkerCrashError` form of this record."""
        from ..errors import WorkerCrashError
        peers = [i for i in self.chunk_indices if i != self.index]
        detail = (f" (chunk peers also lost: {peers})" if peers else "")
        return WorkerCrashError(
            f"worker process died abruptly while running item "
            f"{self.index}{detail}: {self.context or 'no exit context'}",
            indices=self.chunk_indices, context=self.context)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WorkerCrash(index={self.index}, "
                f"chunk_indices={self.chunk_indices}, "
                f"attempt={self.attempt})")


class ExecBackend:
    """Maps a worker function over items; subclasses define the 'how'."""

    #: worker-process count (1 for in-process backends)
    jobs: int = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} jobs={self.jobs}>"


class SerialBackend(ExecBackend):
    """In-process, in-order execution (the zero-caveat default)."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


def _repro_root() -> str:
    """Directory that must be on ``sys.path`` for ``import repro``."""
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_chunk(fn: Callable[[T], R], chunk: List[T]) -> List[R]:
    """Worker-side chunk body (module top level: pickled by reference)."""
    return [fn(item) for item in chunk]


class ProcessPoolBackend(ExecBackend):
    """Spawn-based process-pool execution with deterministic ordering.

    ``chunksize=None`` picks ``ceil(len(items) / (jobs * 4))`` — large
    enough to amortize task pickling, small enough to load-balance a grid
    whose per-config cost varies by core type.
    """

    def __init__(self, jobs: int, chunksize: Optional[int] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.chunksize = chunksize

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        if self.jobs == 1 or len(items) == 1:
            # nothing to parallelize; skip the pool (and its spawn cost)
            return [fn(item) for item in items]
        import multiprocessing

        # spawn children re-import the worker's module from scratch; make
        # sure they can resolve `import repro` even when the parent got it
        # via sys.path manipulation rather than an exported PYTHONPATH
        root = _repro_root()
        existing = os.environ.get("PYTHONPATH", "")
        if root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (root + os.pathsep + existing
                                        if existing else root)

        chunksize = self.chunksize
        if chunksize is None:
            chunksize = -(-len(items) // (self.jobs * 4))  # ceil div
        chunksize = max(1, chunksize)
        chunks: List[Tuple[List[int], List[T]]] = []
        for start in range(0, len(items), chunksize):
            positions = list(range(start, min(start + chunksize, len(items))))
            chunks.append((positions, [items[p] for p in positions]))

        ctx = multiprocessing.get_context("spawn")
        results: List[Optional[R]] = [None] * len(items)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            attempt += 1
            pending = self._run_round(fn, chunks, pending, results,
                                      ctx, attempt)
        return results  # type: ignore[return-value]

    def _run_round(self, fn, chunks, pending, results, ctx,
                   attempt: int) -> List[int]:
        """Run one pool generation over ``pending`` chunk ids.

        Fills ``results`` in place; returns the chunk ids that must be
        retried in a fresh pool.  On a broken pool, the first broken chunk
        in submission order is blamed (its items become
        :class:`WorkerCrash` sentinels) and the rest are retried — so
        every generation resolves at least one chunk and the retry loop
        terminates.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.jobs, len(pending))
        broken: List[Tuple[int, str]] = []
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            futures = [(cid, ex.submit(_run_chunk, fn, chunks[cid][1]))
                       for cid in pending]
            # collect in submission (= input) order — completion order
            # never leaks into the result list
            for cid, fut in futures:
                try:
                    out = fut.result()
                except BrokenProcessPool as exc:
                    broken.append((cid, str(exc) or type(exc).__name__))
                else:
                    for pos, r in zip(chunks[cid][0], out):
                        results[pos] = r
        if not broken:
            return []
        suspect, context = broken[0]
        positions = chunks[suspect][0]
        for pos in positions:
            results[pos] = WorkerCrash(index=pos, chunk_indices=positions,
                                       context=context, attempt=attempt)
        return [cid for cid, _ in broken[1:]]


def resolve_backend(jobs: Optional[int] = None,
                    backend: Optional[ExecBackend] = None) -> ExecBackend:
    """The backend for a ``jobs=N`` request (explicit backend wins).

    ``jobs=None`` consults the ``REPRO_JOBS`` environment variable, then
    defaults to serial.  ``jobs=0`` means "all cores"; anything that is
    not an integer >= 0 is a ``ValueError`` naming where it came from.
    """
    if backend is not None:
        return backend
    source, given = "jobs", jobs
    if jobs is None:
        source = "REPRO_JOBS"
        given = os.environ.get("REPRO_JOBS", "").strip() or 1
    try:
        jobs = int(given)
    except ValueError:
        jobs = -1
    if jobs < 0:
        raise ValueError(f"{source} must be 0 (all cores) or an integer "
                         f"N >= 1, not {given!r}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs)
