"""Two-pass text assembler for the mini-ISA.

Syntax follows AArch64 conventions closely enough that the paper's kernels
read naturally::

    start:
        mov   x5, #0
        adr   x2, idx            ; address of data symbol 'idx'
    loop:
        ldr   x6, [x2, x5, lsl #3]
        add   x5, x5, #1
        cmp   x5, x4
        b.lt  loop
        halt

Comments start with ``;``, ``//`` or ``#`` at start of token.  Data symbols
referenced via ``adr`` are resolved against the ``symbols`` mapping supplied
by the caller (the workload generators place their arrays and pass the
addresses in).  ``ldrsw`` is accepted as an alias of ``ldr`` (all memory
accesses are 64-bit words in this model).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import AddrMode, Cond, Instruction, Opcode
from .program import Program
from .registers import Reg, RegClass, parse_reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_MEM_RE = re.compile(
    r"^\[\s*(?P<base>\w+)\s*"
    r"(?:,\s*(?:#(?P<imm>-?\w+)|(?P<idx>\w+)\s*(?:,\s*lsl\s*#(?P<shift>\d+))?)\s*)?"
    r"\]\s*(?:,\s*#(?P<post>-?\w+))?$"
)

_COND_MAP = {c.name.lower(): c for c in Cond}

_ALU3 = {
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "and": Opcode.AND,
    "orr": Opcode.ORR,
    "eor": Opcode.EOR,
    "lsl": Opcode.LSL,
    "lsr": Opcode.LSR,
    "asr": Opcode.ASR,
    "mul": Opcode.MUL,
}
_FP3 = {"fadd": Opcode.FADD, "fsub": Opcode.FSUB, "fmul": Opcode.FMUL}


class AssemblerError(ValueError):
    """Raised for any syntax or resolution error, with line context."""


_CLASS_NOUN = {RegClass.X: "an X", RegClass.D: "a D"}


def _expect(reg: Reg, rclass: RegClass, op: str, k: int, lineno: int) -> Reg:
    """``reg`` as operand ``k`` of ``op``, which takes a ``rclass``
    register there."""
    if reg.rclass is not rclass:
        raise AssemblerError(
            f"line {lineno}: {op} takes {_CLASS_NOUN[rclass]} register in "
            f"operand {k}, got {reg.name}")
    return reg


def _strip_comment(line: str) -> str:
    for marker in (";", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _parse_imm(token: str, symbols: Dict[str, int], lineno: int) -> int:
    token = token.strip().lstrip("#")
    try:
        return int(token, 0)
    except ValueError:
        if token in symbols:
            return symbols[token]
        raise AssemblerError(f"line {lineno}: bad immediate or unknown symbol {token!r}")


def _parse_fimm(token: str, lineno: int) -> float:
    token = token.strip().lstrip("#")
    try:
        return float(token)
    except ValueError:
        raise AssemblerError(f"line {lineno}: bad float immediate {token!r}")


def _split_operands(rest: str) -> List[str]:
    """Split operands on commas that are not inside brackets."""
    parts: List[str] = []
    depth = 0
    cur = ""
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


def _parse_mem_operand(
    token: str, symbols: Dict[str, int], lineno: int
) -> Tuple[Reg, Optional[Reg], Optional[int], int, AddrMode]:
    m = _MEM_RE.match(token)
    if not m:
        raise AssemblerError(f"line {lineno}: bad memory operand {token!r}")
    base = parse_reg(m.group("base"))
    if m.group("post") is not None:
        if m.group("imm") or m.group("idx"):
            raise AssemblerError(f"line {lineno}: mixed addressing in {token!r}")
        return base, None, _parse_imm(m.group("post"), symbols, lineno), 0, AddrMode.POST_IMM
    if m.group("idx") is not None:
        shift = int(m.group("shift") or 0)
        return base, parse_reg(m.group("idx")), None, shift, AddrMode.OFF_REG
    imm = _parse_imm(m.group("imm"), symbols, lineno) if m.group("imm") else 0
    return base, None, imm, 0, AddrMode.OFF_IMM


def _assemble_line(
    mnemonic: str, operands: List[str], symbols: Dict[str, int], lineno: int, text: str
) -> Instruction:
    op = mnemonic.lower()

    def need(n: int) -> None:
        if len(operands) != n:
            raise AssemblerError(
                f"line {lineno}: {op} expects {n} operands, got {len(operands)}"
            )

    def x(k: int) -> Reg:
        return _expect(parse_reg(operands[k - 1]), RegClass.X, op, k, lineno)

    def d(k: int) -> Reg:
        return _expect(parse_reg(operands[k - 1]), RegClass.D, op, k, lineno)

    if op in ("nop", "halt"):
        need(0)
        return Instruction(Opcode.NOP if op == "nop" else Opcode.HALT, text=text)

    if op in ("ldr", "str", "ldrsw"):
        # post-index syntax "[xn], #imm" splits at the top-level comma; rejoin
        if len(operands) == 3 and operands[1].endswith("]") and operands[2].startswith("#"):
            operands = [operands[0], f"{operands[1]}, {operands[2]}"]
        need(2)
        rd = parse_reg(operands[0])
        base, idx, imm, shift, mode = _parse_mem_operand(operands[1], symbols, lineno)
        for reg in (base, idx):       # addresses are formed in X registers
            if reg is not None:
                _expect(reg, RegClass.X, op, 2, lineno)
        return Instruction(
            Opcode.LDR if op in ("ldr", "ldrsw") else Opcode.STR,
            rd=rd, rn=base, rm=idx, imm=imm, shift=shift, mode=mode, text=text,
        )

    if op in ("mov", "movz"):
        need(2)
        rd = x(1)
        if operands[1].startswith("#") or operands[1].lstrip("-").isdigit():
            return Instruction(Opcode.MOV, rd=rd, imm=_parse_imm(operands[1], symbols, lineno),
                               text=text)
        return Instruction(Opcode.MOV, rd=rd, rn=x(2), text=text)

    if op == "fmov":
        need(2)
        rd = d(1)
        if operands[1].startswith("#"):
            return Instruction(Opcode.FMOV, rd=rd, imm=_parse_fimm(operands[1], lineno), text=text)
        return Instruction(Opcode.FMOV, rd=rd, rn=d(2), text=text)

    if op == "adr":
        need(2)
        rd = x(1)
        sym = operands[1].lstrip("=")
        return Instruction(Opcode.ADR, rd=rd, imm=_parse_imm(sym, symbols, lineno), text=text)

    if op == "cmp":
        need(2)
        rn = x(1)
        if operands[1].startswith("#"):
            return Instruction(Opcode.CMP, rn=rn, imm=_parse_imm(operands[1], symbols, lineno),
                               text=text)
        return Instruction(Opcode.CMP, rn=rn, rm=x(2), text=text)

    if op in _ALU3:
        need(3)
        rd, rn = x(1), x(2)
        if operands[2].startswith("#") or operands[2].lstrip("-").isdigit():
            return Instruction(_ALU3[op], rd=rd, rn=rn,
                               imm=_parse_imm(operands[2], symbols, lineno), text=text)
        return Instruction(_ALU3[op], rd=rd, rn=rn, rm=x(3), text=text)

    if op in _FP3:
        need(3)
        return Instruction(_FP3[op], rd=d(1), rn=d(2), rm=d(3), text=text)

    if op in ("madd", "fmadd"):
        need(4)
        reg = x if op == "madd" else d
        return Instruction(
            Opcode.MADD if op == "madd" else Opcode.FMADD,
            rd=reg(1), rn=reg(2), rm=reg(3), ra=reg(4), text=text,
        )

    if op == "b":
        need(1)
        return Instruction(Opcode.B, label=operands[0], text=text)

    if op.startswith("b.") and op[2:] in _COND_MAP:
        need(1)
        return Instruction(Opcode.BCOND, cond=_COND_MAP[op[2:]], label=operands[0], text=text)

    if op in ("cbz", "cbnz"):
        need(2)
        return Instruction(Opcode.CBZ if op == "cbz" else Opcode.CBNZ,
                           rn=x(1), label=operands[1], text=text)

    raise AssemblerError(f"line {lineno}: unknown mnemonic {op!r}")


def assemble(source: str, symbols: Optional[Dict[str, int]] = None, name: str = "program") -> Program:
    """Assemble ``source`` into a :class:`Program`.

    ``symbols`` maps data symbol names to byte addresses, used to resolve
    ``adr`` operands and symbolic immediates.
    """
    symbols = dict(symbols or {})
    labels: Dict[str, int] = {}
    pending: List[Tuple[str, List[str], int, str]] = []

    # pass 1: collect labels + tokenized instructions
    pc = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        while True:
            m = _LABEL_RE.match(line.split(None, 1)[0] if " " in line else line)
            if m and (line == m.group(0) or line.startswith(m.group(0))):
                if m.group(1) in labels:
                    raise AssemblerError(f"line {lineno}: duplicate label {m.group(1)!r}")
                labels[m.group(1)] = pc
                line = line[len(m.group(0)):].strip()
                if not line:
                    break
            else:
                break
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        pending.append((mnemonic, operands, lineno, line))
        pc += 1

    # pass 2: assemble with branch target resolution
    instructions: List[Instruction] = []
    for mnemonic, operands, lineno, text in pending:
        inst = _assemble_line(mnemonic, operands, symbols, lineno, text)
        if inst.label is not None:
            if inst.label not in labels:
                raise AssemblerError(f"line {lineno}: undefined label {inst.label!r}")
            inst = Instruction(
                inst.opcode, rd=inst.rd, rn=inst.rn, rm=inst.rm, ra=inst.ra,
                imm=inst.imm, shift=inst.shift, cond=inst.cond, mode=inst.mode,
                target=labels[inst.label], label=inst.label, text=text,
            )
        instructions.append(inst)

    return Program(instructions=instructions, labels=labels, symbols=symbols, name=name)
