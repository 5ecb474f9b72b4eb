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

from .. import workloads as wl
from ..virec import ViReCConfig, ViReCCore
from .common import SUITE, ExperimentResult, geomean, run_core, scale_to_n

VARIANTS: Dict[str, Dict] = {
    "full": {},
    "no_pinning": {"pinning": False},
    "no_dummy_fill": {"dummy_fill": False},
    "blocking_bsi": {"blocking_bsi": True},
    "no_sysreg_buffer": {"sysreg_buffer": False},
    "plru_policy": {"policy": "plru"},
    "mrt_plru_policy": {"policy": "mrt-plru"},
    "group_evict_3": {"group_evict": 3},
    "context_prefetch": {"context_prefetch": True},
}


def _run_variant(workload: str, n: int, n_threads: int, overrides: Dict,
                 seed: int = 7) -> int:
    inst = wl.get(workload).build(n_threads=n_threads, n_per_thread=n,
                                  seed=seed)
    rf = max(8, round(0.6 * n_threads * len(inst.active_regs)))
    return run_core(inst, ViReCCore,
                    virec=ViReCConfig(rf_size=rf, **overrides))


def run(scale="quick", workloads_: Sequence[str] = SUITE,
        n_threads: int = 8,
        variants: Sequence[str] = tuple(VARIANTS)) -> ExperimentResult:
    """Run the ablation sweep; returns slowdown-vs-full rows."""
    n = scale_to_n(scale)
    rows: List[Dict] = []
    per_variant: Dict[str, List[float]] = {v: [] for v in variants}
    for workload in workloads_:
        base = _run_variant(workload, n, n_threads, VARIANTS["full"])
        row = {"workload": workload, "full_cycles": base}
        for variant in variants:
            if variant == "full":
                continue
            cycles = _run_variant(workload, n, n_threads, VARIANTS[variant])
            slowdown = cycles / base
            row[variant] = slowdown
            per_variant[variant].append(slowdown)
        rows.append(row)
    mean = {"workload": "GEOMEAN", "full_cycles": 0}
    for variant in variants:
        if variant == "full":
            continue
        mean[variant] = geomean(per_variant[variant])
    rows.append(mean)
    return ExperimentResult(
        experiment="ablation",
        title="ViReC design ablations (slowdown vs full design, >1 = worse)",
        rows=rows,
        notes="each column removes one mechanism (or adds a future-work "
              "extension) at 60% context, 8 threads")
