"""Compiler study: what does list scheduling buy on the in-order cores?

One sweep across the suite (beyond the paper's figures, using the
§4.2-adjacent compiler support in :mod:`repro.compiler`): list-scheduled
vs original kernels on the banked core.  Load-shadow filling shortens
single-thread critical paths, and the shorter run segments change CGMT
behaviour.  The register-reduction pass is measured end to end by
``tests/integration/test_regreduce_endtoend``.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Sequence

from .. import workloads as wl
from ..compiler import schedule_program
from ..system import RunConfig
from ..system.simulator import core_build
from .common import SUITE, ExperimentResult, figure_run, geomean, scale_to_n


def _default_seed(workload: str) -> int:
    """The seed ``workload``'s builder uses when given none."""
    return inspect.signature(wl.get(workload).build).parameters["seed"].default


def grid(scale="quick", workloads: Sequence[str] = SUITE,
         n_threads: int = 8) -> List[RunConfig]:
    """Per workload the original kernel, then its list schedule."""
    n = scale_to_n(scale)
    configs: List[RunConfig] = []
    for workload in workloads:
        base = RunConfig(workload=workload, core_type="banked",
                         n_threads=n_threads, n_per_thread=n,
                         seed=_default_seed(workload))
        configs += [base, base.with_(workload_kwargs={"schedule": True})]
    return configs


def fold(configs, results, **_) -> ExperimentResult:
    """Scheduled-vs-original rows from :func:`grid`'s runs."""
    rows: List[Dict] = []
    speedups = []
    moved_fracs = []
    for i in range(0, len(configs), 2):
        base, cycles = results[i].cycles, results[i + 1].cycles
        # static, so read off the program rather than the run
        sched = schedule_program(wl.build(*core_build(configs[i])).program)
        speedup = base / cycles
        moved = sched.moved_instructions / max(1, len(sched.program))
        speedups.append(speedup)
        moved_fracs.append(moved)
        rows.append({"workload": configs[i].workload, "base_cycles": base,
                     "sched_cycles": cycles, "speedup": speedup,
                     "static_moved_%": 100.0 * moved})
    rows.append({"workload": "GEOMEAN", "base_cycles": 0, "sched_cycles": 0,
                 "speedup": geomean(speedups),
                 "static_moved_%": 100.0 * sum(moved_fracs) / len(moved_fracs)})
    return ExperimentResult(
        experiment="compiler_study",
        title="basic-block list scheduling on the banked CGMT core",
        rows=rows,
        notes="speedup >1 = scheduled kernel faster; near-memory kernels "
              "have tiny blocks, so gains are modest by construction")


run = figure_run("compiler_study", grid, fold)
