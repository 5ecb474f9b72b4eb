"""Figure 9: performance of ViReC vs banked, NSF, and RF prefetching.

For each workload and thread count (4/6/8), runs: the banked baseline,
ViReC at 40/60/80% context, the NSF register cache [41], and the two
prefetching strategies.  Reports per-run speedup relative to the banked
core plus the suite means the paper quotes (e.g. mean drops of ~4.4%/7.1%/
10% at 80% context for 4/6/8 threads).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..system import RunConfig
from .common import SUITE, ExperimentResult, figure_run, geomean, scale_to_n

CONTEXTS = (0.8, 0.6, 0.4)
THREADS = (4, 6, 8)


def grid(scale="quick", workloads: Sequence[str] = SUITE,
         threads: Sequence[int] = THREADS, include_nsf: bool = True,
         include_prefetch: bool = True) -> List[RunConfig]:
    """The figure's flat config list, row-major, baseline first per cell."""
    n = scale_to_n(scale)
    configs: List[RunConfig] = []
    for workload in workloads:
        for t in threads:
            base = RunConfig(workload=workload, n_threads=t, n_per_thread=n)
            configs.append(base.with_(core_type="banked"))
            for frac in CONTEXTS:
                configs.append(base.with_(core_type="virec",
                                          context_fraction=frac))
            if include_nsf:
                for frac in (0.8, 0.4):
                    configs.append(base.with_(core_type="nsf",
                                              context_fraction=frac))
            if include_prefetch:
                configs.append(base.with_(core_type="prefetch-full"))
                configs.append(base.with_(core_type="prefetch-exact"))
    return configs


def _column(cfg: RunConfig) -> str:
    """Row column name of one non-baseline config."""
    if cfg.core_type == "virec":
        return f"virec{int(cfg.context_fraction * 100)}"
    if cfg.core_type == "nsf":
        return f"nsf{int(cfg.context_fraction * 100)}"
    return {"prefetch-full": "pf_full", "prefetch-exact": "pf_exact"}[
        cfg.core_type]


def fold(configs, results, **_) -> ExperimentResult:
    """Figure 9 (speedups vs banked) from :func:`grid`'s runs."""
    rows: List[Dict] = []
    for cfg, result in zip(configs, results):
        if cfg.core_type == "banked":
            rows.append({"workload": cfg.workload, "threads": cfg.n_threads,
                         "banked_cycles": result.cycles})
        else:
            rows[-1][_column(cfg)] = rows[-1]["banked_cycles"] / result.cycles

    # suite means per thread count (the numbers quoted in Section 6.1)
    summary = []
    for t in dict.fromkeys(row["threads"] for row in rows):
        sub = [r for r in rows if r["threads"] == t]
        entry = {"workload": "GEOMEAN", "threads": t, "banked_cycles": 0}
        for key in sub[0]:
            if key in ("workload", "threads", "banked_cycles"):
                continue
            entry[key] = geomean([r[key] for r in sub])
        summary.append(entry)
    rows.extend(summary)

    return ExperimentResult(
        experiment="fig09",
        title="speedup vs banked (>1 = faster than banked)",
        rows=rows,
        notes="virecNN = ViReC storing NN% of active contexts; "
              "nsfNN = NSF [41] baseline; pf_* = double-buffer RF prefetching")


run = figure_run("fig09", grid, fold)
