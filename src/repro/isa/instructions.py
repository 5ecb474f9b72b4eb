"""Instruction IR and execution semantics for the mini-ISA.

The ISA is a compact AArch64-flavoured RISC subset sufficient to express the
paper's near-memory kernels (gather/scatter/stride/stream/meabo/...):

* ALU: ``add sub and orr eor lsl lsr asr mul madd mov adr``
* Compare/branch: ``cmp`` (sets NZCV), ``b``, ``b.<cond>``, ``cbz``, ``cbnz``
* Memory: ``ldr``/``str`` with immediate-offset, register-offset
  (``[xn, xm, lsl #s]``) and post-index (``[xn], #imm``) addressing
* Floating point: ``fadd fsub fmul fmadd fmov`` and ``ldr/str`` on ``d`` regs
* ``nop`` and ``halt`` (ends the thread)

All memory accesses are 8-byte aligned 64-bit words; this keeps the
functional memory model exact while preserving the cache-line behaviour that
drives the paper's results (8 registers per 64-byte line, Section 5.3).

:func:`evaluate` implements the architectural semantics of one instruction,
given its already-read source values.  It is shared by the functional golden
model (:mod:`repro.isa.func_sim`) and by every cycle-level core model, so the
timing models can never diverge functionally from the ISA definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum, auto
from typing import Dict, Optional, Tuple

from .registers import Reg

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63


def to_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as signed."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN64 else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into unsigned 64-bit."""
    return value & MASK64


class Opcode(Enum):
    """Instruction opcodes of the mini-ISA (see docs/isa.md)."""

    # ALU
    ADD = auto()
    SUB = auto()
    AND = auto()
    ORR = auto()
    EOR = auto()
    LSL = auto()
    LSR = auto()
    ASR = auto()
    MUL = auto()
    MADD = auto()
    MOV = auto()
    ADR = auto()
    CMP = auto()
    # memory
    LDR = auto()
    STR = auto()
    # floating point
    FADD = auto()
    FSUB = auto()
    FMUL = auto()
    FMADD = auto()
    FMOV = auto()
    # control
    B = auto()
    BCOND = auto()
    CBZ = auto()
    CBNZ = auto()
    NOP = auto()
    HALT = auto()


class Cond(IntEnum):
    """Branch conditions (signed compare semantics, ARM NZCV rules)."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5


class AddrMode(Enum):
    """Load/store addressing modes."""

    OFF_IMM = auto()   # [xn, #imm]
    OFF_REG = auto()   # [xn, xm, lsl #shift]
    POST_IMM = auto()  # [xn], #imm  (writeback)


ALU_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.AND,
        Opcode.ORR,
        Opcode.EOR,
        Opcode.LSL,
        Opcode.LSR,
        Opcode.ASR,
        Opcode.MUL,
        Opcode.MADD,
        Opcode.MOV,
        Opcode.ADR,
        Opcode.CMP,
    }
)
FP_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FMADD, Opcode.FMOV})
BRANCH_OPS = frozenset({Opcode.B, Opcode.BCOND, Opcode.CBZ, Opcode.CBNZ})
MEM_OPS = frozenset({Opcode.LDR, Opcode.STR})

#: Execute-stage latency (cycles) per opcode class; loads/stores get their
#: latency from the memory system instead.
EX_LATENCY: Dict[Opcode, int] = {
    Opcode.MUL: 3,
    Opcode.MADD: 3,
    Opcode.FADD: 4,
    Opcode.FSUB: 4,
    Opcode.FMUL: 4,
    Opcode.FMADD: 5,
}


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    ``srcs``/``dests`` are derived once at construction and cached; they are
    exactly the register sets the VRMU must have resident for the instruction
    to enter the pipeline backend (Section 5.1).
    """

    opcode: Opcode
    rd: Optional[Reg] = None
    rn: Optional[Reg] = None
    rm: Optional[Reg] = None
    ra: Optional[Reg] = None
    imm: Optional[float] = None
    shift: int = 0
    cond: Optional[Cond] = None
    mode: Optional[AddrMode] = None
    target: Optional[int] = None  # branch target (instruction index)
    label: Optional[str] = None   # unresolved label name (assembler use)
    text: str = ""
    srcs: Tuple[Reg, ...] = field(default=(), init=False)
    dests: Tuple[Reg, ...] = field(default=(), init=False)
    regs: Tuple[Reg, ...] = field(default=(), init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "srcs", self._compute_srcs())
        object.__setattr__(self, "dests", self._compute_dests())
        seen = set()
        allregs = []
        for r in self.srcs + self.dests:
            if r not in seen:
                seen.add(r)
                allregs.append(r)
        object.__setattr__(self, "regs", tuple(allregs))

    # -- register sets ----------------------------------------------------
    def _compute_srcs(self) -> Tuple[Reg, ...]:
        op = self.opcode
        out = []
        if op in (Opcode.MOV, Opcode.FMOV):
            if self.rn is not None:
                out.append(self.rn)
        elif op in (Opcode.CBZ, Opcode.CBNZ):
            out.append(self.rn)
        elif op == Opcode.LDR:
            out.append(self.rn)
            if self.mode == AddrMode.OFF_REG:
                out.append(self.rm)
        elif op == Opcode.STR:
            out.append(self.rd)  # value to store
            out.append(self.rn)
            if self.mode == AddrMode.OFF_REG:
                out.append(self.rm)
        elif op in (Opcode.ADR, Opcode.B, Opcode.NOP, Opcode.HALT, Opcode.BCOND):
            pass
        else:  # ALU / FP
            if self.rn is not None:
                out.append(self.rn)
            if self.rm is not None:
                out.append(self.rm)
            if self.ra is not None:
                out.append(self.ra)
        # dedupe, keep order
        seen = set()
        uniq = []
        for r in out:
            if r not in seen:
                seen.add(r)
                uniq.append(r)
        return tuple(uniq)

    def _compute_dests(self) -> Tuple[Reg, ...]:
        op = self.opcode
        out = []
        if op == Opcode.LDR:
            out.append(self.rd)
            if self.mode == AddrMode.POST_IMM:
                out.append(self.rn)
        elif op == Opcode.STR:
            if self.mode == AddrMode.POST_IMM:
                out.append(self.rn)
        elif op in (Opcode.CMP, Opcode.B, Opcode.BCOND, Opcode.CBZ, Opcode.CBNZ,
                    Opcode.NOP, Opcode.HALT):
            pass
        elif self.rd is not None:
            out.append(self.rd)
        return tuple(out)

    # -- classification ----------------------------------------------------
    @property
    def plan(self) -> Tuple[Tuple[Reg, int, bool, bool], ...]:
        """The register-cache accesses this instruction makes at decode:
        ``(reg, flat index, is a destination, is a source)`` per operand,
        in ``regs`` order.  A written operand is dirty on a hit and needs
        no old value on a miss (dummy fill); a read operand's miss is a
        latency-critical fill.  :class:`~repro.isa.decoded.DecodedOp`
        materializes this once per static instruction for the VRMU.
        """
        return tuple((r, r.flat, r in self.dests, r in self.srcs)
                     for r in self.regs)

    @property
    def is_load(self) -> bool:
        return self.opcode == Opcode.LDR

    @property
    def is_store(self) -> bool:
        return self.opcode == Opcode.STR

    @property
    def is_mem(self) -> bool:
        return self.opcode in MEM_OPS

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCH_OPS

    @property
    def is_halt(self) -> bool:
        return self.opcode == Opcode.HALT

    @property
    def ex_latency(self) -> int:
        return EX_LATENCY.get(self.opcode, 1)

    @property
    def sets_flags(self) -> bool:
        return self.opcode == Opcode.CMP

    @property
    def reads_flags(self) -> bool:
        return self.opcode == Opcode.BCOND

    def __repr__(self) -> str:
        return self.text or self.opcode.name.lower()


@dataclass
class Flags:
    """ARM-style NZCV condition flags."""

    n: bool = False
    z: bool = True
    c: bool = True
    v: bool = False

    def copy(self) -> "Flags":
        return Flags(self.n, self.z, self.c, self.v)

    def evaluate(self, cond: Cond) -> bool:
        if cond == Cond.EQ:
            return self.z
        if cond == Cond.NE:
            return not self.z
        if cond == Cond.LT:
            return self.n != self.v
        if cond == Cond.LE:
            return self.z or (self.n != self.v)
        if cond == Cond.GT:
            return (not self.z) and (self.n == self.v)
        if cond == Cond.GE:
            return self.n == self.v
        raise ValueError(f"unknown condition {cond}")  # pragma: no cover


@dataclass
class ExecResult:
    """Outcome of executing one instruction (excluding memory data).

    ``writes`` maps destination registers to values known at execute time;
    a load's destination is *not* in ``writes`` (memory supplies it later).
    """

    writes: Dict[Reg, float] = field(default_factory=dict)
    addr: Optional[int] = None
    store_value: Optional[float] = None
    taken: bool = False
    target: Optional[int] = None
    new_flags: Optional[Flags] = None
    halt: bool = False


def _alu(op: Opcode, a: int, b: int, c: int = 0) -> int:
    if op == Opcode.ADD:
        return (a + b) & MASK64
    if op == Opcode.SUB:
        return (a - b) & MASK64
    if op == Opcode.AND:
        return a & b
    if op == Opcode.ORR:
        return a | b
    if op == Opcode.EOR:
        return a ^ b
    if op == Opcode.LSL:
        return (a << (b & 63)) & MASK64
    if op == Opcode.LSR:
        return (a & MASK64) >> (b & 63)
    if op == Opcode.ASR:
        return to_unsigned(to_signed(a) >> (b & 63))
    if op == Opcode.MUL:
        return (a * b) & MASK64
    if op == Opcode.MADD:
        return (a * b + c) & MASK64
    raise ValueError(f"not an ALU op: {op}")  # pragma: no cover


def compute_address(inst: Instruction, base: int, offset_reg: int = 0) -> Tuple[int, Optional[int]]:
    """Return ``(effective_address, base_writeback_value_or_None)``."""
    if inst.mode == AddrMode.OFF_IMM:
        return (base + int(inst.imm or 0)) & MASK64, None
    if inst.mode == AddrMode.OFF_REG:
        return (base + ((offset_reg << inst.shift) & MASK64)) & MASK64, None
    if inst.mode == AddrMode.POST_IMM:
        return base & MASK64, (base + int(inst.imm or 0)) & MASK64
    raise ValueError(f"instruction {inst} has no addressing mode")


def evaluate(inst: Instruction, srcvals: Dict[Reg, float], flags: Flags, pc: int) -> ExecResult:
    """Execute ``inst`` architecturally given its source-operand values.

    ``srcvals`` must contain every register in ``inst.srcs``.  Integer
    registers hold unsigned 64-bit Python ints; FP registers hold floats.
    """
    op = inst.opcode
    res = ExecResult()

    if op == Opcode.NOP:
        return res
    if op == Opcode.HALT:
        res.halt = True
        return res

    if op == Opcode.MOV:
        res.writes[inst.rd] = int(srcvals[inst.rn]) & MASK64 if inst.rn is not None else int(inst.imm) & MASK64
        return res
    if op == Opcode.FMOV:
        res.writes[inst.rd] = float(srcvals[inst.rn]) if inst.rn is not None else float(inst.imm)
        return res
    if op == Opcode.ADR:
        res.writes[inst.rd] = int(inst.imm) & MASK64
        return res

    if op == Opcode.CMP:
        a = int(srcvals[inst.rn])
        b = int(srcvals[inst.rm]) if inst.rm is not None else int(inst.imm) & MASK64
        diff = (a - b) & MASK64
        f = Flags(
            n=bool(diff & SIGN64),
            z=diff == 0,
            c=(a & MASK64) >= (b & MASK64),
            v=(to_signed(a) - to_signed(b)) != to_signed(diff),
        )
        res.new_flags = f
        return res

    if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR, Opcode.EOR,
              Opcode.LSL, Opcode.LSR, Opcode.ASR, Opcode.MUL):
        a = int(srcvals[inst.rn])
        b = int(srcvals[inst.rm]) if inst.rm is not None else int(inst.imm) & MASK64
        res.writes[inst.rd] = _alu(op, a, b)
        return res
    if op == Opcode.MADD:
        res.writes[inst.rd] = _alu(op, int(srcvals[inst.rn]), int(srcvals[inst.rm]),
                                   int(srcvals[inst.ra]))
        return res

    if op == Opcode.FADD:
        res.writes[inst.rd] = float(srcvals[inst.rn]) + float(srcvals[inst.rm])
        return res
    if op == Opcode.FSUB:
        res.writes[inst.rd] = float(srcvals[inst.rn]) - float(srcvals[inst.rm])
        return res
    if op == Opcode.FMUL:
        res.writes[inst.rd] = float(srcvals[inst.rn]) * float(srcvals[inst.rm])
        return res
    if op == Opcode.FMADD:
        res.writes[inst.rd] = (float(srcvals[inst.rn]) * float(srcvals[inst.rm])
                               + float(srcvals[inst.ra]))
        return res

    if op == Opcode.B:
        res.taken = True
        res.target = inst.target
        return res
    if op == Opcode.BCOND:
        if flags.evaluate(inst.cond):
            res.taken = True
            res.target = inst.target
        return res
    if op in (Opcode.CBZ, Opcode.CBNZ):
        zero = int(srcvals[inst.rn]) & MASK64 == 0
        if (op == Opcode.CBZ) == zero:
            res.taken = True
            res.target = inst.target
        return res

    if op in (Opcode.LDR, Opcode.STR):
        base = int(srcvals[inst.rn])
        off = int(srcvals[inst.rm]) if (inst.mode == AddrMode.OFF_REG and inst.rm) else 0
        addr, writeback = compute_address(inst, base, off)
        res.addr = addr
        if writeback is not None:
            res.writes[inst.rn] = writeback
        if op == Opcode.STR:
            res.store_value = srcvals[inst.rd]
        return res

    raise ValueError(f"unimplemented opcode {op}")  # pragma: no cover
