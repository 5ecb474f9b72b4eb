"""Figure 10: performance-per-register tradeoff for gather.

Sweeps the number of scheduled threads; for each thread count, plots the
banked design plus ViReC at 40/60/80/100% context storage — performance
(inverse runtime for a fixed total amount of work) divided by the number of
physical registers provisioned.
"""

from __future__ import annotations

from typing import List, Sequence

from .. import workloads as wl
from ..system import RunConfig
from .common import ExperimentResult, figure_run, scale_to_n

FRACTIONS = (0.4, 0.6, 0.8, 1.0)


def grid(scale="quick", workload: str = "gather",
         threads: Sequence[int] = (2, 4, 6, 8, 10)) -> List[RunConfig]:
    """Per thread count: banked (up to its 8 banks), then ViReC per
    fraction; the same total work everywhere."""
    total = scale_to_n(scale) * max(threads)
    configs = []
    for t in threads:
        base = RunConfig(workload=workload, n_threads=t,
                         n_per_thread=max(4, total // t))
        if t <= 8:
            configs.append(base.with_(core_type="banked"))
        for frac in FRACTIONS:
            configs.append(base.with_(core_type="virec",
                                      context_fraction=frac))
    return configs


def fold(configs, results, **_) -> ExperimentResult:
    """Figure 10 (performance per register) from :func:`grid`'s runs."""
    workload = configs[0].workload
    active = len(wl.get(workload).build(n_threads=2, n_per_thread=4).active_regs)
    rows = []
    for cfg, r in zip(configs, results):
        if cfg.core_type == "banked":
            regs = cfg.n_threads * 64
            rows.append({"threads": cfg.n_threads, "config": "banked",
                         "registers": regs, "cycles": r.cycles,
                         "perf": 1e6 / r.cycles,
                         "perf_per_reg": 1e6 / r.cycles / regs})
        else:
            regs = cfg.resolve_rf_size(active)
            rows.append({"threads": cfg.n_threads,
                         "config": f"virec{int(cfg.context_fraction * 100)}",
                         "registers": regs, "cycles": r.cycles,
                         "perf": 1e6 / r.cycles,
                         "perf_per_reg": 1e6 / r.cycles / regs,
                         "rf_hit_rate": r.rf_hit_rate})
    return ExperimentResult(
        experiment="fig10",
        title=f"performance per register, {workload} (fixed total work)",
        rows=rows,
        notes="perf = 1e6/cycles for the same total element count at every point")


run = figure_run("fig10", grid, fold)
