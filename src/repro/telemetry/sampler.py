"""Interval metrics: per-N-cycle deltas of a core's Stats tree.

The sampler reads eight column totals off a core's
:class:`~repro.stats.counters.Stats` subtree every ``interval`` cycles of
that core's commit clock and emits one row per interval with the *deltas* —
IPC, VRMU hit rate, spill/fill bandwidth, dcache misses — plus whatever the
attached collector adds (per-thread register-cache occupancy, instruction
counts).  The executable definition of a column (flatten the tree to dotted
keys, subtract the previous flattening, sum the keys with the column's
suffix) is ``tests/telemetry/reference_sampler.py``.

Rows are plain dicts of JSON scalars, exportable as deterministic JSONL
(same seed + config => byte-identical output) and renderable as ASCII
sparklines via :func:`repro.stats.reporting.render_intervals`.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from ..stats.counters import Stats

#: dotted-suffix -> row column; values are summed over all matching
#: counters in the sampled subtree (so multi-level trees just work)
_DELTA_COLUMNS = {
    "vrmu.hits": "vrmu_hits",
    "vrmu.misses": "vrmu_misses",
    "vrmu.spill_evictions": "vrmu_evictions",
    "bsi.fills": "fills",
    "bsi.dummy_fills": "dummy_fills",
    "bsi.spills": "spills",
    "dcache.misses": "dcache_misses",
    "context_switches": "context_switches",
}
_COLUMNS = tuple(_DELTA_COLUMNS.values())
#: each suffix as a walk reads it: ``(node name, counter)``; a one-segment
#: suffix has node name ``""`` and matches that counter in any node
_SUFFIXES = tuple(suffix.rpartition(".")[::2] for suffix in _DELTA_COLUMNS)


def _add_totals(stats: Stats, totals: List) -> None:
    """Add the subtree's matching counters into ``totals``, one walk.

    Node and counter names are taken to hold no dots, as everywhere in
    this tree.
    """
    for name, counters in stats.nodes():
        for i, (parent, key) in enumerate(_SUFFIXES):
            if (not parent or parent == name) and key in counters:
                totals[i] += counters[key]


class IntervalSampler:
    """Periodic Stats-delta sampler for one core.

    ``extra`` is an optional callable ``extra(cycle) -> dict`` merged into
    every row (the core-telemetry adapter uses it for instruction deltas
    and VRMU occupancy, which live outside the Stats tree).
    """

    def __init__(self, interval: int, stats: Stats, core_id: int = 0,
                 extra: Optional[Callable[[int], Dict]] = None) -> None:
        if interval < 1:
            raise ValueError("sampler interval must be >= 1")
        self.interval = interval
        self.stats = stats
        self.core_id = core_id
        self.extra = extra
        self.rows: List[Dict] = []
        self._totals = self._read()
        #: the first commit-clock cycle that closes an interval; a caller
        #: may skip :meth:`on_cycle` for any earlier cycle
        self.next_at = interval

    # -- sampling ----------------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        """Advance the sampler to commit-clock ``cycle`` (monotone)."""
        while cycle >= self.next_at:
            self._sample(self.next_at, self.interval)
            self.next_at += self.interval

    def finalize(self, cycle: int) -> None:
        """Emit the final partial interval (if any cycles elapsed)."""
        self.on_cycle(cycle)
        elapsed = cycle - (self.next_at - self.interval)
        if elapsed > 0:
            self._sample(cycle, elapsed)

    def _read(self) -> List:
        """The eight column totals now.

        A total starts as the int ``0`` and becomes a float with the first
        counter that matches, so a column nothing matches samples as ``0``
        and one that something matched as ``0.0`` — the bytes of the JSONL.
        """
        totals: List = [0] * len(_COLUMNS)
        _add_totals(self.stats, totals)
        return totals

    def _sample(self, cycle: int, elapsed: int) -> None:
        prev, now = self._totals, self._read()
        self._totals = now
        row: Dict = {"core": self.core_id, "cycle": int(cycle),
                     "elapsed": int(elapsed)}
        for i, column in enumerate(_COLUMNS):
            row[column] = now[i] - prev[i]
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

    # -- export ------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Rows as deterministic JSON lines (sorted keys, trailing \\n)."""
        if not self.rows:
            return ""
        return "\n".join(json.dumps(row, sort_keys=True)
                         for row in self.rows) + "\n"


def merge_rows(samplers: List[IntervalSampler]) -> List[Dict]:
    """All samplers' rows interleaved by (cycle, core) — the JSONL order
    for multi-core runs."""
    rows: List[Dict] = []
    for s in samplers:
        rows.extend(s.rows)
    rows.sort(key=lambda r: (r["cycle"], r["core"]))
    return rows
