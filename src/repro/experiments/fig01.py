"""Figure 1: performance-area tradeoff on the gather kernel.

Points reproduced (normalized to the single in-order core):

* single InO processor;
* OoO host core (N1-class, 2 GHz, 19.1x area);
* 2/4/8 replicated InO processors (multi-core TLP, no multithreading);
* banked CGMT at 4 and 8 threads (256/512 registers);
* ViReC at 4 and 8 threads storing 40-100% of the active contexts.

Performance is total-work throughput (the same total element count is used
for every point) and area comes from :mod:`repro.area`.
"""

from __future__ import annotations

from typing import Dict, List

from .. import workloads as wl
from ..area import (
    banked_core_area,
    inorder_core_area,
    multi_core_area,
    ooo_core_area,
    virec_core_area,
)
from ..system import RunConfig
from .common import ExperimentResult, figure_run, scale_to_n

#: total elements processed by every configuration (threads x per-thread)
TOTAL_FACTOR = 8


def grid(scale="quick", workload: str = "gather") -> List[RunConfig]:
    """The figure's points, the single in-order core first."""
    n_total = scale_to_n(scale) * TOTAL_FACTOR
    base = RunConfig(workload=workload, n_threads=1, n_per_thread=n_total)
    configs = [base.with_(core_type="inorder"), base.with_(core_type="ooo")]
    # replicated InO processors: per-core independent batches; the slowest
    # core bounds completion, approximated by an even work split
    configs += [base.with_(core_type="banked", n_cores=cores,
                           n_per_thread=n_total // cores)
                for cores in (2, 4, 8)]
    configs += [base.with_(core_type="banked", n_threads=threads,
                           n_per_thread=n_total // threads)
                for threads in (4, 8)]
    configs += [base.with_(core_type="virec", n_threads=threads,
                           n_per_thread=n_total // threads,
                           context_fraction=frac)
                for threads in (4, 8) for frac in (0.4, 0.6, 0.8, 1.0)]
    return configs


def fold(configs, results, **_) -> ExperimentResult:
    """Figure 1 (performance-area Pareto) from :func:`grid`'s runs."""
    rows = [_point(cfg, r) for cfg, r in zip(configs, results)]

    # normalize speedups to the single InO
    base_cycles = rows[0]["cycles"]
    for row in rows:
        row["speedup"] = base_cycles / row["cycles"]
        row["perf_per_area"] = row["speedup"] / row["area_mm2"]

    return ExperimentResult(
        experiment="fig01",
        title=f"performance-area tradeoff ({configs[0].workload})",
        rows=rows,
        notes="speedup normalized to a single in-order processor; same total work everywhere")


run = figure_run("fig01", grid, fold)


def _point(cfg: RunConfig, r) -> Dict:
    """One point's row: label, cycles and area (plus the register-cache
    columns of a ViReC point)."""
    if cfg.core_type == "virec":
        inst = wl.get(cfg.workload).build(n_threads=cfg.n_threads,
                                          n_per_thread=4)
        rf = cfg.resolve_rf_size(len(inst.active_regs))
        return {"config": f"virec-{cfg.n_threads}t-"
                          f"{int(cfg.context_fraction * 100)}%",
                "cycles": r.cycles, "area_mm2": virec_core_area(rf),
                "rf_entries": rf, "rf_hit_rate": r.rf_hit_rate}
    if cfg.core_type == "banked" and cfg.n_cores > 1:
        label = f"inorder-x{cfg.n_cores}"
        area = multi_core_area(inorder_core_area(), cfg.n_cores)
    elif cfg.core_type == "banked":
        label, area = f"banked-{cfg.n_threads}t", banked_core_area(cfg.n_threads)
    elif cfg.core_type == "ooo":
        label, area = "ooo", ooo_core_area()
    else:
        label, area = "inorder-1", inorder_core_area()
    return {"config": label, "cycles": r.cycles, "area_mm2": area}
