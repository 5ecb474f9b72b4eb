"""Test-only reference model of the interval sampler: the ``IntervalSampler``
of ``repro/telemetry/sampler.py`` as it was before it read its eight columns
in one walk, kept verbatim as the model the production sampler is compared
against (``test_reference_sampler.py``) — together with ``Stats.snapshot()``
and ``Stats.delta()``, which had no other caller in ``src/`` and moved here
as functions of the tree.

Every sample flattens the whole tree to dotted keys twice (``delta`` then
``snapshot``: f-string keys, a sort per node) and scans the result once per
column with ``str.endswith``.  The production sampler keeps the column
totals and reads the next ones off the nodes; nothing here is imported by
``src/``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.stats.counters import Stats
from repro.telemetry.sampler import _DELTA_COLUMNS


def snapshot(stats: Stats) -> Dict[str, float]:
    """Flat copy of every counter (dotted keys, rooted at this node).

    Keys are relative to this namespace (the node's own name is not
    prefixed), so snapshots taken from the same node are comparable
    regardless of where the node sits in a larger tree.
    """
    return dict(stats.flat(prefix=""))


def delta(stats: Stats, since: Dict[str, float]) -> Dict[str, float]:
    """Difference of the current counters against a prior snapshot.

    Counters created after the snapshot delta against zero; counters
    untouched since the snapshot report 0.0 (they are retained so
    interval series keep a stable column set).
    """
    now = snapshot(stats)
    keys = set(now) | set(since)
    return {k: now.get(k, 0.0) - since.get(k, 0.0) for k in keys}


def _pick(delta: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in delta.items()
               if k == suffix or k.endswith("." + suffix))


class ReferenceSampler:
    """Periodic Stats-delta sampler for one core (the old body)."""

    def __init__(self, interval: int, stats: Stats, core_id: int = 0,
                 extra: Optional[Callable[[int], Dict]] = None) -> None:
        if interval < 1:
            raise ValueError("sampler interval must be >= 1")
        self.interval = interval
        self.stats = stats
        self.core_id = core_id
        self.extra = extra
        self.rows: List[Dict] = []
        self._snap = snapshot(stats)
        self._next = interval

    def on_cycle(self, cycle: int) -> None:
        """Advance the sampler to commit-clock ``cycle`` (monotone)."""
        while cycle >= self._next:
            self._sample(self._next, self.interval)
            self._next += self.interval

    def finalize(self, cycle: int) -> None:
        """Emit the final partial interval (if any cycles elapsed)."""
        self.on_cycle(cycle)
        elapsed = cycle - (self._next - self.interval)
        if elapsed > 0:
            self._sample(cycle, elapsed)

    def _sample(self, cycle: int, elapsed: int) -> None:
        d = delta(self.stats, self._snap)
        self._snap = snapshot(self.stats)
        row: Dict = {"core": self.core_id, "cycle": int(cycle),
                     "elapsed": int(elapsed)}
        for suffix, column in _DELTA_COLUMNS.items():
            row[column] = _pick(d, suffix)
        hits, misses = row["vrmu_hits"], row["vrmu_misses"]
        row["vrmu_hit_rate"] = (round(hits / (hits + misses), 6)
                                if hits + misses else None)
        row["spill_fill_per_kcycle"] = round(
            (row["spills"] + row["fills"] + row["dummy_fills"])
            * 1000.0 / elapsed, 3)
        if self.extra is not None:
            row.update(self.extra(cycle))
        if "instructions" in row:
            row["ipc"] = round(row["instructions"] / elapsed, 6)
        self.rows.append(row)
