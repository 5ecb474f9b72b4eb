"""Run-time analytics for the ViReC register cache.

Instruments a core to sample register-cache occupancy and produce the
research-facing summaries the paper's figures are distilled from:

* per-thread resident register counts over time (who owns the cache);
* eviction breakdowns (which thread-distance the victims came from —
  the direct measure of how well the T bits are working);
* register lifetime statistics (insert-to-evict interval distribution).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class OccupancySample:
    instruction_index: int
    per_thread: Dict[int, int]
    free: int


@dataclass
class RegisterCacheReport:
    """Aggregated analytics from one instrumented run."""

    capacity: int
    samples: List[OccupancySample] = field(default_factory=list)
    eviction_owner_distance: Dict[int, int] = field(default_factory=dict)
    lifetimes: List[int] = field(default_factory=list)

    @property
    def mean_occupancy(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([self.capacity - s.free for s in self.samples]))

    def thread_share(self, tid: int) -> float:
        """Average fraction of resident entries owned by ``tid``."""
        if not self.samples:
            return 0.0
        shares = []
        for s in self.samples:
            resident = self.capacity - s.free
            if resident:
                shares.append(s.per_thread.get(tid, 0) / resident)
        return float(np.mean(shares)) if shares else 0.0

    @property
    def mean_lifetime(self) -> float:
        return float(np.mean(self.lifetimes)) if self.lifetimes else 0.0

    def summary(self) -> str:
        tids = sorted({t for s in self.samples for t in s.per_thread})
        lines = [
            f"register cache capacity      : {self.capacity}",
            f"mean occupancy               : {self.mean_occupancy:.1f} "
            f"({self.mean_occupancy / self.capacity:.0%})",
            f"mean register lifetime       : {self.mean_lifetime:.0f} accesses",
        ]
        for tid in tids:
            lines.append(f"  thread {tid} mean share       : "
                         f"{self.thread_share(tid):.1%}")
        if self.eviction_owner_distance:
            total = sum(self.eviction_owner_distance.values())
            lines.append("evictions by owner distance (0 = running thread):")
            for dist in sorted(self.eviction_owner_distance):
                count = self.eviction_owner_distance[dist]
                lines.append(f"  distance {dist}: {count} ({count / total:.0%})")
        return "\n".join(lines)


class RegisterCacheMonitor:
    """Attach to a ViReCCore; samples occupancy every ``period`` accesses.

    Evictions and inserts are observed through the VRMU's probe seam
    (``vrmu.probe``); a probe that is already attached keeps receiving
    every event.
    """

    def __init__(self, core, period: int = 16) -> None:
        self.core = core
        self.period = period
        self.report = RegisterCacheReport(capacity=core.vconfig.rf_size)
        self._access_count = 0
        self._current_tid = 0
        self._insert_clock: Dict[int, int] = {}
        self._distance: Dict[int, int] = defaultdict(int)
        self._install()

    def _install(self) -> None:
        vrmu = self.core.vrmu
        ts = vrmu.tagstore
        orig_access = vrmu.access

        def access(tid, inst, t):
            self._access_count += 1
            if self._access_count % self.period == 0:
                self.report.samples.append(OccupancySample(
                    instruction_index=self._access_count,
                    per_thread=ts.occupancy_by_thread(),
                    free=ts.capacity - ts.resident_count()))
            self._current_tid = tid
            return orig_access(tid, inst, t)

        vrmu.access = access
        self._chained = vrmu.probe
        vrmu.probe = self

    # -- VRMU probe points ---------------------------------------------------
    def on_evict(self, slot, requester_tid, cause, t) -> None:
        """Called *before* the tag store drops ``slot``."""
        owner = self.core.vrmu.tagstore.owner[slot]
        n_threads = max(1, len(self.core.threads))
        self._distance[(owner - self._current_tid) % n_threads] += 1
        if slot in self._insert_clock:
            self.report.lifetimes.append(
                self._access_count - self._insert_clock.pop(slot))
        if self._chained is not None:
            self._chained.on_evict(slot, requester_tid, cause, t)

    def on_insert(self, slot, tid, reg, t) -> None:
        self._insert_clock[slot] = self._access_count
        if self._chained is not None:
            self._chained.on_insert(slot, tid, reg, t)

    def _forward(name):
        """A probe point this monitor has no use of its own for."""
        def hook(self, *args, **kwargs) -> None:
            if self._chained is not None:
                getattr(self._chained, name)(*args, **kwargs)
        return hook

    on_hit, on_miss, on_fill, on_spill = map(
        _forward, ("on_hit", "on_miss", "on_fill", "on_spill"))

    def finish(self) -> RegisterCacheReport:
        self.report.eviction_owner_distance = dict(self._distance)
        return self.report
