"""Fault study: protection-scheme overhead and escape rates under injection.

Sweeps soft-error rate x protection scheme x (core type, context fraction)
on the gather kernel, injecting seeded bit flips into the physical RF, the
tag store, and the reserved backing region (see :mod:`repro.faults`).  The
study quantifies the resilience trade-off the architecture makes: ViReC's
context state spans three structures (RF cache, tag store, and dcache-held
backing region), so at a matched per-site rate its escape surface exceeds a
banked design's, whose architectural state lives only in its (smaller, but
fully-populated) register banks.

Per cell the driver reports mean cycle overhead over the fault-free
baseline (ECC correction and refill recovery both cost cycles) and the
fraction of seeds whose run aborted on an escape — a parity-detected flip
that cannot be repaired, or (scheme ``none``) silent corruption caught by
the workload's functional check.

Every injected run is error-isolated: an escape (any
:class:`~repro.errors.SimulationError`) comes back as a ``None`` result
and is counted, not fatal.
"""

from __future__ import annotations

from typing import List

from ..system import RunConfig
from .common import ExperimentResult, figure_run, scale_to_n

#: per-site per-cycle flip probabilities (0 = injection disabled entirely)
RATES = (0.0, 3e-5, 1e-4, 3e-4)
SCHEMES = ("parity", "ecc", "refill")
#: (core_type, context_fraction) cells; banked ignores context fraction
CELLS = (("virec", 0.4), ("virec", 0.8), ("banked", None))
SEEDS_PER_CELL = 3
#: table column -> the fault counter it averages over completed runs
COUNTERS = (("injected", "faults_injected"), ("detected", "faults_detected"),
            ("corrected", "faults_corrected"),
            ("recovery_cyc", "recovery_cycles"))


def _fault_counter(result, name: str) -> float:
    """Sum a fault counter over all cores of one run."""
    return sum(v for k, v in result.stats.flat()
               if k.endswith(f"faults.{name}"))


def grid(scale="quick", sanitize: bool = False) -> List[RunConfig]:
    """Per cell: the fault-free run of each seed (the denominator for
    overhead, and the reference a rate-0 run must reproduce
    bit-identically), then one injected run per (scheme, rate, seed).

    With ``sanitize=True`` every injected run also carries the VSan
    shadow-state sanitizer (per-commit granularity), so a protection
    scheme that claims recovery is cross-checked architecturally: a
    "corrected" value that is not bit-identical to the golden model
    raises :class:`~repro.errors.SanitizerViolation` and counts as an
    escape.  See ``docs/correctness.md``.
    """
    n = scale_to_n(scale)
    configs: List[RunConfig] = []
    for core_type, cf in CELLS:
        clean = [RunConfig(workload="gather", core_type=core_type,
                           n_threads=6, n_per_thread=n, seed=7 + 101 * k,
                           **({} if cf is None else {"context_fraction": cf}))
                 for k in range(SEEDS_PER_CELL)]
        configs += clean
        configs += [cfg.with_(faults={"rf_rate": rate, "tag_rate": rate,
                                      "backing_rate": rate, "scheme": scheme,
                                      "seed": cfg.seed},
                              sanitize=({"granularity": "commit"} if sanitize
                                        else None))
                    for scheme in SCHEMES for rate in RATES for cfg in clean]
    return configs


def fold(configs, results, **_) -> ExperimentResult:
    """One row per (cell, scheme, rate) from :func:`grid`'s runs, a None
    result counted as an escape."""
    runs = iter(results)
    rows = []
    for core_type, cf in CELLS:
        clean = [next(runs) for _ in range(SEEDS_PER_CELL)]
        for scheme in SCHEMES:
            for rate in RATES:
                pairs = [(next(runs), base) for base in clean]
                done = [(r, base) for r, base in pairs if r is not None]
                escapes = SEEDS_PER_CELL - len(done)
                n_done = len(done) or 1
                rows.append({
                    "core": core_type,
                    "context": cf if cf is not None else "-",
                    "scheme": scheme,
                    "rate": f"{rate:g}",   # %g: 3e-05 survives the table fmt
                    "runs": SEEDS_PER_CELL,
                    "escapes": escapes,
                    "escape_rate": escapes / SEEDS_PER_CELL,
                    "overhead": sum(r.cycles / base.cycles - 1.0
                                    for r, base in done) / n_done,
                    **{column: sum(_fault_counter(r, name)
                                   for r, _ in done) / n_done
                       for column, name in COUNTERS},
                })
    return ExperimentResult(
        experiment="fault_study",
        title="protection scheme overhead and escape rate vs fault rate",
        rows=rows,
        notes=("overhead = mean cycles vs fault-free baseline (completed "
               "runs); escape_rate = fraction of seeds aborting on an "
               "unrecoverable fault"))


run = figure_run("fault_study", grid, fold)
