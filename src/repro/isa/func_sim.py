"""Functional (non-timed) golden model: the architectural context and its step.

:class:`ArchState` is a thread's architectural context — pc, integer and FP
registers, NZCV flags — and :func:`arch_step` is the one rule that applies
a committed instruction to it.  Every user of architectural state shares
both: the timing cores' :class:`~repro.core.base.ThreadContext` is an
``ArchState`` with scheduling fields beside it, VSan's shadow is an
``ArchState`` advanced by ``arch_step`` in store-check mode, and the
out-of-order host core keeps one ``ArchState`` and steps it as it times.

:class:`FunctionalSimulator` runs a :class:`~repro.isa.program.Program` to
completion with ``arch_step`` and no timing.  Every cycle-level core model
in :mod:`repro.core` is validated against it in the integration tests: same
program + same initial memory must produce identical final register and
memory state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import DeadlockError
from ..memory.main_memory import MainMemory
from .instructions import MASK64, ExecResult, Flags, Instruction, evaluate
from .program import Program
from .registers import NUM_FP_REGS, NUM_INT_REGS, D, Reg, RegClass, X


@dataclass
class ArchState:
    """Architectural context of one thread: registers, flags, pc."""

    pc: int = 0
    xregs: List[int] = field(default_factory=lambda: [0] * NUM_INT_REGS)
    dregs: List[float] = field(default_factory=lambda: [0.0] * NUM_FP_REGS)
    flags: Flags = field(default_factory=Flags)

    def read(self, reg: Reg):
        if reg.rclass == RegClass.X:
            return self.xregs[reg.index]
        return self.dregs[reg.index]

    def write(self, reg: Reg, value) -> None:
        if reg.rclass == RegClass.X:
            self.xregs[reg.index] = int(value) & MASK64
        else:
            self.dregs[reg.index] = float(value)

    def copy(self) -> "ArchState":
        """An independent ``ArchState`` holding this context (also of a
        subclass instance: the copy carries the architectural part only)."""
        return ArchState(pc=self.pc, xregs=list(self.xregs),
                         dregs=list(self.dregs), flags=self.flags.copy())

    def snapshot(self) -> Dict[str, object]:
        """Register dump keyed by register name (for test comparisons)."""
        out: Dict[str, object] = {}
        for i, v in enumerate(self.xregs):
            out[X(i).name] = v
        for i, v in enumerate(self.dregs):
            out[D(i).name] = v
        return out


def arch_step(state: ArchState, inst: Instruction, memory: MainMemory,
              store: bool = True) -> ExecResult:
    """Apply one committed instruction to ``state`` and return its result.

    Evaluates ``inst`` on ``state``'s registers, flags and pc, then writes
    the destination registers, the flags, a load's data (read from
    ``memory``) and a store's value (into ``memory``), and advances the
    pc.  A halt leaves the pc on the halt.  With ``store=False`` the store
    is skipped, so that a caller can check what another model stored at
    ``result.addr`` against ``result.store_value``.
    """
    result = evaluate(inst, {r: state.read(r) for r in inst.srcs},
                      state.flags, state.pc)
    for reg, value in result.writes.items():
        state.write(reg, value)
    if result.new_flags is not None:
        state.flags = result.new_flags
    if inst.is_load:
        state.write(inst.rd, memory.load(result.addr))
    elif store and inst.is_store:
        memory.store(result.addr, result.store_value)
    if not result.halt:
        state.pc = result.target if result.taken else state.pc + 1
    return result


class FunctionalSimulator:
    """Executes a program instruction-at-a-time with no timing model."""

    def __init__(self, program: Program, memory: Optional[MainMemory] = None,
                 max_instructions: int = 50_000_000) -> None:
        self.program = program
        self.memory = memory if memory is not None else MainMemory()
        self.state = ArchState(pc=program.entry)
        self.halted = False
        self.max_instructions = max_instructions
        self.instructions_executed = 0

    def step(self) -> bool:
        """Execute one instruction; returns False once halted."""
        if self.halted:
            return False
        pc = self.state.pc
        if not 0 <= pc < len(self.program):
            raise RuntimeError(f"pc {pc} outside program ({len(self.program)} instructions)")
        if arch_step(self.state, self.program[pc], self.memory).halt:
            self.halted = True
            return False
        self.instructions_executed += 1
        return True

    def run(self) -> ArchState:
        """Run to HALT (or raise :class:`DeadlockError` once the
        instruction budget is exceeded)."""
        while self.step():
            if self.instructions_executed > self.max_instructions:
                raise DeadlockError(
                    "instruction budget exceeded (missing halt / infinite "
                    f"loop?): {self.instructions_executed} > "
                    f"max_instructions={self.max_instructions}",
                    committed=self.instructions_executed)
        return self.state


def run_functional(program: Program, memory: Optional[MainMemory] = None,
                   init_regs: Optional[Dict[Reg, object]] = None) -> FunctionalSimulator:
    """Convenience wrapper: run ``program`` and return the finished simulator."""
    sim = FunctionalSimulator(program, memory)
    for reg, value in (init_regs or {}).items():
        sim.state.write(reg, value)
    sim.run()
    return sim
