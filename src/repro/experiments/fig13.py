"""Figure 13: backing-store (dcache) latency and capacity sensitivity.

Left panel: sweep the dcache hit latency with a single 8-thread processor;
ViReC degrades faster than banked because register fills ride the dcache.
Right panel: sweep the dcache capacity; ViReC's pinned register lines
consume capacity, so it thrashes earlier than a banked core.  Reports the
geometric-mean IPC across the workload suite.
"""

from __future__ import annotations

from typing import List, Sequence

from ..system import RunConfig
from .common import SUITE, ExperimentResult, figure_run, geomean, scale_to_n

LATENCIES = (1, 2, 4, 8, 16)
CAPACITIES_KB = (2, 4, 8, 16, 32)


def grid(scale="quick", workloads: Sequence[str] = SUITE,
         latencies: Sequence[int] = LATENCIES,
         capacities_kb: Sequence[int] = CAPACITIES_KB,
         n_threads: int = 8) -> List[RunConfig]:
    """Per swept value, the suite on ViReC at 80 % context, then on banked
    (each sweep holds the other knob at its default, so both list the
    point where they meet).  The banked rows carry no context fraction, a
    field banked ignores, so the default-dcache ones are Figure 9's."""
    n = scale_to_n(scale)
    points = ([{"dcache_latency": lat} for lat in latencies]
              + [{"dcache_kb": kb} for kb in capacities_kb])
    cores = (("virec", {"context_fraction": 0.8}), ("banked", {}))
    return [RunConfig(workload=w, core_type=core_type, n_threads=n_threads,
                      n_per_thread=n, **context, **point)
            for point in points
            for core_type, context in cores
            for w in workloads]


def fold(configs, results, workloads=SUITE, latencies=LATENCIES,
         capacities_kb=CAPACITIES_KB, **_) -> ExperimentResult:
    """Figure 13 (dcache sensitivity) from :func:`grid`'s runs."""
    runs = iter(results)

    def gmean_ipc() -> float:
        return geomean([next(runs).ipc for _ in workloads])

    rows = [{"sweep": sweep, "value": value,
             "virec_ipc": gmean_ipc(), "banked_ipc": gmean_ipc()}
            for sweep, values in (("latency", latencies),
                                  ("capacity_kb", capacities_kb))
            for value in values]
    return ExperimentResult(
        experiment="fig13", title="dcache latency and capacity sweep "
                                  "(geomean IPC across suite)",
        rows=rows,
        notes="ViReC uses the dcache as register backing store, so it is "
              "more sensitive to both knobs than the banked design")


run = figure_run("fig13", grid, fold)
