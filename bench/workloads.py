"""The benchmark's six workloads.

Each is a closed loop of ``run_config`` calls, one at a time, on the serial
exec backend.  ``--seed`` becomes ``RunConfig.seed``; the simulator sees only
the configs built here.  All use 8 threads and the default (compiled) engine
unless stated.  Sizes are chosen so one pass takes 1-1.7 s on the reference
host: the driver's time cap leaves ~12 s of measuring per run, and seven or
more repetitions have to fit in it.

The ``why`` strings are the ones ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

#: ``--smoke`` divides every ``n_per_thread`` by this (floor 2)
SMOKE_DIVISOR = 16

OBSERVED_SINKS = {
    "telemetry": {"telemetry": {"events": True, "interval": 100,
                                "pipeline_trace": True}},
    "metrics": {"metrics": True},
    "profiling": {"profile": True},
    "sanitizer": {"sanitize": True},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``configs(seed, n_of)`` -> the pass's RunConfigs, in run order;
    #: ``n_of`` maps a full-size ``n_per_thread`` to the one to use
    configs: Callable
    #: the pass goes through ``experiments.common.run_many`` with a fresh
    #: ledger per repetition instead of one ``run_config`` per config
    sweep: bool = False
    #: measure each observability sink alone against the bare config
    observed: bool = False


def _rc(**kw):
    from repro.system import RunConfig
    return RunConfig(**kw)


def _banked_compute(seed, n_of):
    return [_rc(workload=w, core_type="banked", n_per_thread=n_of(1280),
                seed=seed)
            for w in ("histogram", "reduction", "stencil")]


def _node_memory(seed, n_of):
    return [_rc(workload=w, core_type="banked", n_cores=4,
                n_per_thread=n_of(160), seed=seed)
            for w in ("vecadd", "stride", "pointer_chase")]


def _virec_hit(seed, n_of):
    return [_rc(workload=w, core_type="virec", context_fraction=1.0,
                policy="lrc", n_per_thread=n_of(256), seed=seed)
            for w in ("gather", "triad", "histogram")]


def _virec_thrash(seed, n_of):
    # gather commits ~50 instructions per element, spmv ~500: sized apart so
    # neither kernel is a rounding error of the pass
    return [_rc(workload=w, core_type="virec", context_fraction=0.4,
                policy=p, n_per_thread=n_of(n), seed=seed)
            for w, n in (("gather", 192), ("spmv", 12))
            for p in ("lrc", "plru")]


def observed_bare(seed, n_of):
    """virec_observed's config with every observability sink off."""
    return _rc(workload="gather", core_type="virec", context_fraction=0.8,
               n_per_thread=n_of(352), seed=seed)


def _virec_observed(seed, n_of):
    sinks = {}
    for name in ("telemetry", "metrics", "profiling"):
        sinks.update(OBSERVED_SINKS[name])
    return [observed_bare(seed, n_of).with_(**sinks)]


def _fig_sweep(seed, n_of):
    from repro.experiments import fig09, fig12
    n = n_of(6)
    grid = (fig09.grid(n, workloads=("gather", "spmv"), threads=(4, 8))
            + fig12.grid(n, workloads=("pointer_chase",)))
    return [cfg.with_(seed=seed) for cfg in grid]


WORKLOADS: List[Workload] = [
    Workload(
        "banked_compute",
        "banked x histogram/reduction/stencil: engine dispatch is 50-60% of "
        "host time, VRMU absent; an engine or codegen change must move it, "
        "a VRMU change must not",
        _banked_compute),
    Workload(
        "node_memory",
        "banked, 4 cores x vecadd/stride/pointer_chase: cache miss path, "
        "crossbar and DRAM contention dominate and superop chaining is off; "
        "a cache/DRAM gain shows here first",
        _node_memory),
    Workload(
        "virec_hit",
        "virec at 100% context, LRC x gather/triad/histogram: the VRMU hit "
        "path (tag lookup, policy touch, rollback push); no victim selection, "
        "no spills",
        _virec_hit),
    Workload(
        "virec_thrash",
        "virec at 40% context x gather/spmv x lrc/plru: miss, victim "
        "selection, fill/spill through pinned dcache lines; a hit-path gain "
        "paid for on the eviction path shows here",
        _virec_thrash),
    Workload(
        "virec_observed",
        "virec at 80% context, gather, telemetry+metrics+profiling on: the "
        "only workload with a non-empty InstrumentBus; every other workload "
        "predicts no change from a sink change",
        _virec_observed, observed=True),
    Workload(
        "fig_sweep",
        "46 short Fig 9 + Fig 12 configs through run_many with a fresh "
        "ledger: every core type and policy plus build, assemble, compile, "
        "exec backend and ledger insert, as a user runs them",
        _fig_sweep, sweep=True),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def n_of(smoke: bool) -> Callable[[int], int]:
    if smoke:
        return lambda n: max(2, n // SMOKE_DIVISOR)
    return lambda n: n
