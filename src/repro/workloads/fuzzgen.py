"""The ``fuzz`` workload: a bridge from the fuzzer into the registry.

Registering generated programs as a regular workload means the entire
existing machinery — :func:`repro.system.simulator.run_config`, telemetry,
fault injection, the sanitizer, spawn-based parallel backends, checkpoint
keys — works on fuzz programs unchanged.  The program's *content* is
fully determined by ``workload_kwargs["gen"]`` (a
:class:`~repro.fuzz.generator.GenSpec` mapping); the ``seed`` argument
every workload build receives is deliberately ignored so that retries
under a perturbed run seed re-run the *same* program.

``workload_kwargs["asm"]`` optionally overrides the generated assembly
while keeping the spec's data arrays and symbols — the hook the shrinker
and corpus replay use to run minimized candidates.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa import X, assemble
from ..memory.main_memory import MainMemory
from .registry import WorkloadInstance, WorkloadSpec, register


def build_fuzz(n_threads: int = 4, n_per_thread: int = 16, seed: int = 0,
               gen: Optional[Dict] = None, asm: Optional[str] = None,
               **_ignored) -> WorkloadInstance:
    """Materialize one generated program as a WorkloadInstance.

    ``gen`` holds the :class:`~repro.fuzz.generator.GenSpec` fields
    (defaults apply when omitted); ``asm`` optionally replaces the
    generated assembly (shrink candidates, corpus reproducers).
    """
    # imported lazily: repro.workloads imports this module at registration
    # time, and repro.fuzz.generator needs repro.workloads.registry
    from ..fuzz.generator import GenSpec, generate, make_checker

    spec = GenSpec(**(gen or {}))
    kern = generate(spec, n_threads=n_threads, n_per_thread=n_per_thread)
    src = kern.asm if asm is None else asm
    program = assemble(src, symbols=kern.symbols,
                       name=f"fuzz-{spec.archetype}-{spec.seed}")
    mem = MainMemory()
    for name in sorted(kern.arrays):
        mem.write_array(kern.symbols[name], kern.arrays[name])
    pristine = mem.copy()
    init = [{X(0): tid, X(1): n_threads} for tid in range(n_threads)]
    checker = make_checker(program, pristine, init, n_threads)
    # the spec's register layout applies even under an ``asm`` override:
    # RF sizing, fault-injection sites, and the sanitizer's shadow scope
    # all key off used/active regs, so a shrunk reproducer (always a
    # line-subset of the generated program) must keep the original layout
    # for its replay to match the run that found the bug
    return WorkloadInstance(
        name="fuzz", program=program, memory=mem, n_threads=n_threads,
        init_regs=init, used_regs=kern.used_regs,
        active_regs=kern.active_regs, checker=checker, symbols=kern.symbols)


register(WorkloadSpec("fuzz", "fuzzer",
                      "seeded random differential-fuzzing kernel",
                      build_fuzz, loads_per_iter=2, pattern="randomized"))
