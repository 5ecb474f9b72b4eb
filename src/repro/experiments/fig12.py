"""Figure 12: register-cache replacement policy hit rates.

Runs every workload on a single 8-thread ViReC processor at 80% and 40%
context with each policy: PLRU (prior work), LRU (perfect recency),
MRT-PLRU, MRT-LRU (perfect), LRC, and the compiler-assisted extensions
``dead-first`` (static dead-on-commit hints steer eviction) and
``dead-elide`` (additionally skips the writeback of dead victims).
Reports per-workload hit rates plus the suite means the paper quotes
(LRC ~93.9%/82.9% at 80%/40%; LRC beats PLRU by ~21%/7% speedup).
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Sequence

from ..system import RunConfig
from .common import SUITE, ExperimentResult, figure_run, geomean, scale_to_n

POLICIES = ("plru", "lru", "mrt-plru", "mrt-lru", "lrc", "dead-first",
            "dead-elide")
CONTEXTS = (0.8, 0.4)


def grid(scale="quick", workloads: Sequence[str] = SUITE,
         policies: Sequence[str] = POLICIES,
         n_threads: int = 8) -> List[RunConfig]:
    """The figure's flat config list: workload-major, context, then policy."""
    n = scale_to_n(scale)
    return [RunConfig(workload=workload, core_type="virec",
                      n_threads=n_threads, n_per_thread=n,
                      context_fraction=frac, policy=policy)
            for workload in workloads
            for frac in CONTEXTS
            for policy in policies]


def fold(configs, results, **_) -> ExperimentResult:
    """Figure 12 (policy hit rates, speedups) from :func:`grid`'s runs."""
    rows: List[Dict] = []
    for (workload, frac), cell in groupby(
            zip(configs, results),
            key=lambda pair: (pair[0].workload, pair[0].context_fraction)):
        row = {"workload": workload, "context_%": int(frac * 100)}
        cycles = {}
        for cfg, r in cell:
            row[f"hit_{cfg.policy}"] = r.rf_hit_rate
            cycles[cfg.policy] = r.cycles
        if "plru" in cycles and "lrc" in cycles:
            row["lrc_speedup_vs_plru"] = cycles["plru"] / cycles["lrc"]
        if "mrt-plru" in cycles and "lrc" in cycles:
            row["lrc_speedup_vs_mrtplru"] = cycles["mrt-plru"] / cycles["lrc"]
        rows.append(row)

    for frac in CONTEXTS:
        sub = [r for r in rows if r["context_%"] == int(frac * 100)]
        mean = {"workload": "MEAN", "context_%": int(frac * 100)}
        for key in sub[0]:
            if key in ("workload", "context_%"):
                continue
            vals = [r[key] for r in sub if r.get(key) is not None]
            mean[key] = (geomean(vals) if "speedup" in key
                         else sum(vals) / len(vals))
        rows.append(mean)

    return ExperimentResult(
        experiment="fig12", title="replacement policy hit rate / speedup",
        rows=rows,
        notes="hit_X = register-file hit rate under policy X; paper means: "
              "LRC 93.9%/82.9% at 80/40% context, +20.7%/+7.1% vs PLRU")


run = figure_run("fig12", grid, fold)
