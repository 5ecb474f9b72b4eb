"""Ablation study of ViReC's design choices (beyond the paper's figures).

Starting from the full ViReC design at 60% context (mid contention), each
row disables one mechanism the paper describes — register-line pinning,
the dummy-fill destination optimization, the non-blocking BSI, the
system-register ping-pong buffer, the LRC commit bit — and two rows *add*
the future-work extensions (group evictions, next-context prefetch).
Reported as geomean slowdown vs the full design across the suite.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..system import RunConfig
from .common import SUITE, ExperimentResult, figure_run, geomean, scale_to_n

#: each variant's RunConfig fields on top of the full design; ``virec``
#: holds ViReCConfig overrides
VARIANTS: Dict[str, Dict] = {
    "full": {},
    "no_pinning": {"virec": {"pinning": False}},
    "no_dummy_fill": {"virec": {"dummy_fill": False}},
    "blocking_bsi": {"virec": {"blocking_bsi": True}},
    "no_sysreg_buffer": {"virec": {"sysreg_buffer": False}},
    "plru_policy": {"policy": "plru"},
    "mrt_plru_policy": {"policy": "mrt-plru"},
    "group_evict_3": {"virec": {"group_evict": 3}},
    "context_prefetch": {"virec": {"context_prefetch": True}},
}


def grid(scale="quick", workloads: Sequence[str] = SUITE, n_threads: int = 8,
         variants: Sequence[str] = tuple(VARIANTS)) -> List[RunConfig]:
    """Per workload the full design, then each other variant."""
    n = scale_to_n(scale)
    configs: List[RunConfig] = []
    for workload in workloads:
        full = RunConfig(workload=workload, core_type="virec",
                         n_threads=n_threads, n_per_thread=n,
                         context_fraction=0.6)
        configs.append(full)
        configs.extend(full.with_(**VARIANTS[variant]) for variant in variants
                       if variant != "full")
    return configs


def fold(configs, results, variants: Sequence[str] = tuple(VARIANTS),
         **_) -> ExperimentResult:
    """Slowdown-vs-full rows from :func:`grid`'s runs."""
    others = [variant for variant in variants if variant != "full"]
    rows: List[Dict] = []
    per_variant: Dict[str, List[float]] = {v: [] for v in others}
    step = len(others) + 1
    for i in range(0, len(configs), step):
        base = results[i].cycles
        row = {"workload": configs[i].workload, "full_cycles": base}
        for variant, result in zip(others, results[i + 1:i + step]):
            row[variant] = slowdown = result.cycles / base
            per_variant[variant].append(slowdown)
        rows.append(row)
    mean = {"workload": "GEOMEAN", "full_cycles": 0}
    for variant in others:
        mean[variant] = geomean(per_variant[variant])
    rows.append(mean)
    return ExperimentResult(
        experiment="ablation",
        title="ViReC design ablations (slowdown vs full design, >1 = worse)",
        rows=rows,
        notes="each column removes one mechanism (or adds a future-work "
              "extension) at 60% context, 8 threads")


run = figure_run("ablation", grid, fold)
