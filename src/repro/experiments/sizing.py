"""Register-cache provisioning study (synthetic-workload extension).

The paper's evaluation normalizes ViReC capacity as a *percentage of the
active context* (40-100%).  Using the synthetic kernel generator this
study asks whether that normalization is the right one: sweeping the
per-thread register working set (4-14 registers) and the provisioned
fraction independently, the hit rate should collapse onto the fraction
axis — i.e. a 60%-provisioned cache behaves the same whether contexts are
small or large.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..system import RunConfig
from .common import ExperimentResult, figure_run, scale_to_n

WORKING_SETS = (4, 8, 12)
FRACTIONS = (0.4, 0.6, 0.8, 1.0)


def grid(scale="quick", working_sets: Sequence[int] = WORKING_SETS,
         fractions: Sequence[float] = FRACTIONS,
         n_threads: int = 8) -> List[RunConfig]:
    """Working-set size x provisioned fraction on the synthetic kernel."""
    n = scale_to_n(scale)
    return [RunConfig(workload="synthetic", core_type="virec",
                      n_threads=n_threads, n_per_thread=n,
                      context_fraction=frac,
                      workload_kwargs={"working_set": ws, "alu_per_load": 2})
            for ws in working_sets for frac in fractions]


def fold(configs, results, **_) -> ExperimentResult:
    """Hit rate and IPC per working set and fraction, from :func:`grid`."""
    by_ws: Dict = {}
    for cfg, r in zip(configs, results):
        ws = cfg.workload_kwargs["working_set"]
        row = by_ws.setdefault(ws, {"working_set": ws})
        row[f"hit@{int(cfg.context_fraction * 100)}%"] = r.rf_hit_rate
        row[f"ipc@{int(cfg.context_fraction * 100)}%"] = r.ipc
    rows: List[Dict] = list(by_ws.values())
    # collapse check: spread of hit rates across working sets per fraction
    spread_row: Dict = {"working_set": "SPREAD"}
    for key in rows[0]:
        if key.startswith("hit@"):
            vals = [r[key] for r in rows]
            spread_row[key] = max(vals) - min(vals)
    rows.append(spread_row)
    return ExperimentResult(
        experiment="sizing",
        title="register-cache provisioning: hit rate vs context fraction",
        rows=rows,
        notes="SPREAD = max-min hit rate across working-set sizes at equal "
              "provisioned fraction; small spreads validate the paper's "
              "percent-of-context normalization")


run = figure_run("sizing", grid, fold)
