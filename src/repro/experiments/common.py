"""Shared infrastructure for the per-figure experiment drivers.

Each driver module exposes ``run(scale=..., **axes) -> ExperimentResult``
where ``scale`` trades simulated work for runtime ("tiny" for unit tests,
"quick" for the default benchmark run, "full" for the most faithful sweep).
The result carries printable rows matching the series the paper's figure
plots.

A driver that simulates through RunConfigs is ``grid(scale, **axes)`` (its
configs) plus ``fold(configs, results, **axes)`` (its rows); ``repro
experiments`` runs all their grids as one union (:func:`simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import math

from ..errors import SimulationError

SCALES = {
    # elements per thread for performance experiments
    "tiny": 12,
    "quick": 48,
    "full": 160,
}

#: the workload set used for suite-wide averages (Figures 9, 12, 13)
SUITE = ("gather", "scatter", "stride", "meabo", "pointer_chase",
         "reduction", "vecadd", "triad", "spmv", "histogram")


def scale_to_n(scale) -> int:
    """Resolve a scale name (or explicit int >= 1) to elements-per-thread."""
    n = scale if isinstance(scale, int) else SCALES.get(scale)
    if n is None or n < 1:
        raise ValueError(f"unknown scale {scale!r}; use {sorted(SCALES)} "
                         f"or an int >= 1")
    return n


@dataclass
class ExperimentResult:
    """Rows + formatting for one figure/table reproduction."""

    experiment: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""

    def format(self) -> str:
        cols = list(dict.fromkeys(key for row in self.rows for key in row))
        if not cols:
            return f"== {self.experiment}: {self.title} ==\n(no rows)"
        widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in self.rows))
                  for c in cols}
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c])
                                   for c in cols))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def print(self) -> None:
        print(self.format())

    def series(self, key: str) -> List:
        return [row[key] for row in self.rows if key in row]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries (0.0 if none)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def run_many(configs: Sequence, backend=None, cache: str = None,
             ledger: str = None, on_error: str = "raise") -> List:
    """A :func:`~repro.system.simulator.sweep` of ``configs`` on
    ``backend`` (default serial, or ``$REPRO_JOBS`` worker processes;
    results are identical either way).

    ``cache`` names a run-ledger file served through a
    :class:`~repro.ledger.CachedBackend`: digests already recorded are
    returned byte-identically without re-simulating, and fresh results
    warm the ledger.  ``ledger`` records results without serving hits.
    """
    from ..system.simulator import sweep
    cached = None
    if cache is not None:
        from ..exec import resolve_backend
        from ..ledger import CachedBackend
        cached = CachedBackend(cache, inner=resolve_backend(None, backend))
        backend = cached
    try:
        return sweep(list(configs), on_error=on_error, backend=backend,
                     ledger=ledger)
    finally:
        if cached is not None:
            cached.close()


def simulate(grids: Dict[str, Sequence], **run_kw) -> Dict[str, List]:
    """Run the union of the named grids once, deduplicated by config key,
    through :func:`run_many` with ``run_kw``; each name's results in its
    grid's order.  A failed run with faults injected is an escape, a None
    result for the fold to count; any other failure raises
    ``SimulationError("<name>: <ErrorType>: <message>")``."""
    from ..system.manifest import config_key
    keys = {name: [config_key(cfg) for cfg in grid]
            for name, grid in grids.items()}
    union: Dict = {}
    for name, grid in grids.items():
        for key, cfg in zip(keys[name], grid):
            union.setdefault(key, cfg)
    results = run_many(list(union.values()), on_error="isolate", **run_kw)
    for f in results.failures:      # in union order: the first grid first
        if union[f.key].faults is None:
            name = next(name for name, ks in keys.items() if f.key in ks)
            raise SimulationError(f"{name}: {f.error_type}: {f.message}")
    by_key = dict(zip(union, results))
    return {name: [by_key[key] for key in ks] for name, ks in keys.items()}


def figure_run(name: str, grid: Callable, fold: Callable) -> Callable:
    """The ``run(scale="quick", **axes)`` of a driver made of ``grid`` and
    ``fold``: the grid :func:`simulate`-d, then folded; ``axes`` go to
    both."""
    def run(scale="quick", **axes) -> ExperimentResult:
        """Simulate :func:`grid` (``axes`` are its keywords) and fold it."""
        configs = grid(scale, **axes)
        return fold(configs, simulate({name: configs})[name], **axes)
    return run

