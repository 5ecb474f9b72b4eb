"""Mini AArch64-flavoured ISA: registers, instructions, assembler, golden model."""

from .assembler import AssemblerError, assemble
from .decoded import DecodedOp, DecodedProgram
from .func_sim import ArchState, FunctionalSimulator, arch_step, run_functional
from .instructions import (
    AddrMode,
    Cond,
    ExecResult,
    Flags,
    Instruction,
    Opcode,
    evaluate,
)
from .program import Program
from .registers import D, Reg, RegClass, SP, X, from_flat, parse_reg

__all__ = [
    "AddrMode", "ArchState", "AssemblerError", "Cond", "D", "DecodedOp",
    "DecodedProgram", "ExecResult", "Flags", "FunctionalSimulator",
    "Instruction", "Opcode", "Program", "Reg", "RegClass", "SP", "X",
    "arch_step", "assemble", "evaluate", "from_flat", "parse_reg",
    "run_functional",
]
