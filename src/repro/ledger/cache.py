"""CachedBackend: digest-keyed result reuse over any exec backend.

A manifest digest fully determines a run's results (that is the whole
reproducibility contract), so a digest the ledger has already recorded
never needs to be simulated again.  ``CachedBackend`` wraps any
:class:`~repro.exec.ExecBackend` and intercepts the one worker function
every sweep maps — :func:`~repro.exec.workers.grid_worker`, whose task
carries the digest as ``task[6]`` — serving hits straight from the ledger
and delegating only the misses to the inner backend, in input order, so
the result list (and therefore the manifest digest) is byte-identical to
cold recomputation.

Every lookup is graded into exactly one of three counters, posted through
the shared metrics registry when one is bound:

* ``ledger.hit``   — a servable row existed; the run was not executed.
* ``ledger.miss``  — the ledger has never seen this digest.
* ``ledger.stale`` — the digest exists but no row is servable (a
  non-default engine key, older schema version, unchecked row for a
  ``check=True`` request, or an unreadable blob).  Stale is deliberately distinct from
  miss: a burst of stales after a schema bump is expected, a burst of
  stales on an unchanged tree is a cache-keying bug.

Fresh results computed on a miss are recorded back into the same ledger
(``source="cache"``), so the cache warms itself; hits are *not* re-recorded
— a served row carries no new host measurement and re-appending it would
fabricate flat segments in ``repro history`` trajectories.  Failures and
:class:`~repro.exec.WorkerCrash` sentinels are never cached.

An unrecognized worker function passes through to the inner backend
untouched, making the wrapper safe as a drop-in ``backend=`` anywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..exec.backends import ExecBackend, SerialBackend
from ..exec.workers import _append_event, grid_worker
from .store import LedgerReader, Recorder

__all__ = ["CachedBackend"]


class CachedBackend(ExecBackend):
    """Serve digest-keyed ledger hits; run only the misses on ``inner``."""

    def __init__(self, path: str, inner: Optional[ExecBackend] = None,
                 metrics=None) -> None:
        self.path = path
        self.inner = inner if inner is not None else SerialBackend()
        self.metrics = metrics
        #: lookup grades for this backend's lifetime (always maintained,
        #: even with no metrics registry bound)
        self.counts: Dict[str, int] = {"hit": 0, "miss": 0, "stale": 0}
        self._reader = LedgerReader(path)
        self._recorder = Recorder(path)

    @property
    def jobs(self) -> int:  # type: ignore[override]
        return self.inner.jobs

    def close(self) -> None:
        self._reader.close()
        self._recorder.close()

    def bind_metrics(self, registry) -> None:
        """Adopt a fleet registry unless one was bound at construction."""
        if self.metrics is None:
            self.metrics = registry

    # -- lookup grading ------------------------------------------------------
    def _count(self, grade: str) -> None:
        self.counts[grade] += 1
        if self.metrics is not None:
            self.metrics.counter(
                f"ledger.{grade}",
                "cache lookup grades of CachedBackend").inc()

    def _lookup(self, digest: str, check: bool):
        """One graded lookup: the cached RunResult or None."""
        result = self._reader.lookup_result(digest, require_checked=check)
        if result is not None:
            self._count("hit")
            return result
        self._count("stale" if self._reader.has_digest(digest) else "miss")
        return None

    # -- the map interception ------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> List:
        """Split ``grid_worker`` tasks into hits and misses; inner-map only
        the misses.  Any other ``fn`` goes to the inner backend untouched."""
        items = list(items)
        if fn is not grid_worker:
            return self.inner.map(fn, items)
        results: List = [None] * len(items)
        misses: List[int] = []
        for pos, task in enumerate(items):
            index, _, check, _, _, _, key, obs = task
            cached = self._lookup(key, check)
            if cached is None:
                misses.append(pos)
                continue
            if obs is not None:
                _append_event(obs, "row_start", index, cached=True)
                _append_event(obs, "row_ok", index, cached=True,
                              cycles=cached.cycles)
            results[pos] = (cached, None, None, [])
        if misses:
            fresh = self.inner.map(fn, [items[p] for p in misses])
            for pos, out in zip(misses, fresh):
                results[pos] = out
                # a failure or a WorkerCrash sentinel is never cached
                if isinstance(out, tuple) and out[1] is None:
                    self._recorder.record_result(out[0], source="cache",
                                                 checked=items[pos][2])
        return results

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CachedBackend path={self.path!r} inner={self.inner!r} "
                f"counts={self.counts}>")
