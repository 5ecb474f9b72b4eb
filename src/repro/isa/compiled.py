"""Threaded-code compilation of :class:`~repro.isa.decoded.DecodedProgram`.

The decode pass (:mod:`repro.isa.decoded`) flattens per-instruction
*metadata*; this module flattens per-instruction *behaviour*.  Every
``DecodedOp`` is lowered to a specialized Python closure capturing its
operand indices, execute latency, flag/memory/branch class and — inside a
branch-free basic block — a direct reference to the successor closure, so a
whole block runs as one "superop" call chain (SESC's pointer-threaded
``icode_ptr`` dispatch, in Python).  The hot loop of a compiled core is
then ``code[thread.pc](core, thread)`` with zero branching on op class.

The pipeline's timing rules are stated here once per family, as source
fragments in pipeline order: fetch, decode, execute, commit for the
timeline cores; issue, execute, commit, successor-peek for the barrel
core.  :func:`_step_source` splices the per-op-class fragments (simple,
cmp, branch, ldr, str, halt) between them.  Everything the *shape* of the
emitted code depends on — subclass hooks, miss switching, flag reads,
destination register file, post-index writeback, chaining — is a template
switch that leaves code out instead of testing a constant at run time.
Each shape is ``exec``-compiled once per process into a factory taking the
per-pc constants (:data:`_FACTORIES`), so compiling a program costs one
factory call per pc, however many programs a sweep assembles.

Step contract:

* signature ``(core, thread) -> int`` — the number of engine steps
  consumed (>= 1; a superop returns its chain length so the run-loop
  watchdogs count exactly what the interpreted engine counts);
* steps close over **only static program facts** (indices, latencies,
  successor steps).  Everything dynamic is read from ``core`` per call —
  including every method a subclass, a class-level tracer or a test may
  rebind (``ic.access``, ``core.dcache_request``,
  ``core.decode_regs_ready``, ``core.on_commit``,
  ``core._handle_miss_switch``) — so one compiled table is shared by every
  core over the same program;
* steps never read the :class:`~repro.core.instrument.InstrumentBus`: a
  core with anything attached does not run compiled steps at all
  (``TimelineCore._recompile_step`` binds the reference body instead);
* the cycle math equals the reference bodies
  (``TimelineCore._reference_step``, ``FGMTCore._reference_step``), which
  are the oracle; the equivalence suite
  (tests/core/test_engine_equivalence.py) holds the two engines
  byte-identical.  An op whose operand shape the lowering declines is
  handed to the reference body for that pc (:func:`_reference_fallback`).

Compiled tables are cached on the ``DecodedProgram`` (itself cached per
(program, icache line size)) keyed by :class:`EngineVariant`, so closures
never leak across (program, line-size, core-variant) combinations.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass
from string import Template
from textwrap import indent
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .decoded import DecodedOp, DecodedProgram
from .instructions import MASK64, SIGN64, AddrMode, Cond, Flags, Opcode
from .registers import RegClass

__all__ = ["EngineVariant", "CompiledProgram", "compile_program",
           "MAX_CHAIN"]

#: longest superop chain (bounds Python recursion depth per step)
MAX_CHAIN = 48

#: engine families a core can compile for
FAMILIES = ("timeline", "barrel")


@dataclass(frozen=True)
class EngineVariant:
    """The compile key: everything a step's code shape depends on.

    Two cores whose variants compare equal can share one compiled table;
    anything that changes the emitted code (which hooks fire, whether a
    load can context-switch) must be a field here — that is the
    cache-keying guarantee ``tests/isa/test_compiled.py`` pins down.
    """

    family: str = "timeline"       # "timeline" | "barrel"
    reg_hook: bool = False         # decode_regs_ready overridden (VRMU)
    commit_hook: bool = False      # on_commit overridden
    miss_switch: bool = False      # switch_on_miss and >1 thread
    #: superop chaining.  Off for cores inside a multi-core node: the
    #: node interleaves cores per step() in local-clock order, and a
    #: chained step would batch one core's shared-memory traffic ahead
    #: of its peers, changing crossbar/DRAM contention order vs the
    #: interpreted engine.  Part of the key so chained and unchained
    #: tables never collide in the compile cache.
    chained: bool = True


class CompiledProgram:
    """A per-(DecodedProgram, EngineVariant) closure table."""

    __slots__ = ("dprog", "variant", "code")

    def __init__(self, dprog: DecodedProgram, variant: EngineVariant,
                 code: List[Callable]) -> None:
        self.dprog = dprog
        self.variant = variant
        self.code = code

    def __len__(self) -> int:
        return len(self.code)


def compile_program(dprog: DecodedProgram,
                    variant: EngineVariant) -> CompiledProgram:
    """Cached compile of ``dprog`` for ``variant``.

    The cache lives on the DecodedProgram (one per (program, line-size)),
    so the full key is (program identity, icache line size, variant) —
    mirroring the decode-cache guarantees, including the staleness guard.
    """
    if variant.family not in FAMILIES:
        raise ValueError(f"unknown engine family {variant.family!r}")
    cache = dprog.compiled
    cp = cache.get(variant)
    if cp is None or len(cp.code) != len(dprog.ops):
        cp = CompiledProgram(dprog, variant, _build_code(dprog, variant))
        cache[variant] = cp
    return cp


class _Unsupported(Exception):
    """The lowering can't express this op's operand shape; its pc runs the
    core's reference body instead."""


def _block_leaders(dprog: DecodedProgram) -> set:
    """Basic-block leader pcs from the PR 8 dataflow CFG (superop
    boundaries).  Imported lazily: analysis sits above isa in the layer
    order."""
    from ..analysis.dataflow.cfg import build_cfg
    return {b.start for b in build_cfg(dprog.program).blocks}


def _build_code(dprog: DecodedProgram,
                variant: EngineVariant) -> List[Callable]:
    """One step per pc, built in reverse pc order so that a step's
    successor exists when it is chained to.  Only the timeline family
    chains: the barrel scheduler re-picks the earliest-issue thread after
    every instruction, so a chain would defeat the rotation."""
    ops = dprog.ops
    n = len(ops)
    leaders = (_block_leaders(dprog)
               if variant.chained and variant.family == "timeline" else None)
    code: List[Optional[Callable]] = [None] * n
    depth = [0] * n
    for pc in range(n - 1, -1, -1):
        d = ops[pc]
        chain = None
        npc = pc + 1
        if (leaders is not None and not d.is_branch and not d.is_halt
                and npc < n and npc not in leaders
                and depth[npc] < MAX_CHAIN):
            chain = code[npc]
            depth[pc] = depth[npc] + 1
        code[pc] = _make_step(ops, pc, variant, chain)
    return code


def _reference_fallback(core, thread) -> int:
    """The step of an op the lowering declines: the core's interpreted
    reference body runs that one pc.  It chains to nothing, so it ends
    its superop."""
    core._reference_step(thread)
    return 1


def _make_step(ops: List[DecodedOp], pc: int, variant: EngineVariant,
               chain: Optional[Callable]) -> Callable:
    try:
        cls, switches, consts = _lower(ops, pc, variant)
    except _Unsupported:
        return _reference_fallback
    if chain is not None:
        switches.add("chain")
        consts["CHAIN"] = chain
    return _step_factory(variant.family, cls, frozenset(switches),
                         consts)(**consts)


# --------------------------------------------------------------- op lowering
_ALU2 = {
    Opcode.ADD: lambda a, b: (a + b) & MASK64,
    Opcode.SUB: lambda a, b: (a - b) & MASK64,
    Opcode.AND: lambda a, b: a & b,
    Opcode.ORR: lambda a, b: a | b,
    Opcode.EOR: lambda a, b: a ^ b,
    Opcode.LSL: lambda a, b: (a << (b & 63)) & MASK64,
    Opcode.LSR: lambda a, b: (a & MASK64) >> (b & 63),
    Opcode.MUL: lambda a, b: (a * b) & MASK64,
}

_U64 = 1 << 64


def _asr(a: int, b: int) -> int:
    a &= MASK64
    if a & SIGN64:
        a -= _U64
    return (a >> (b & 63)) & MASK64


_ALU2[Opcode.ASR] = _asr

_COND_TESTS = {
    Cond.EQ: lambda f: f.z,
    Cond.NE: lambda f: not f.z,
    Cond.LT: lambda f: f.n != f.v,
    Cond.LE: lambda f: f.z or (f.n != f.v),
    Cond.GT: lambda f: (not f.z) and (f.n == f.v),
    Cond.GE: lambda f: f.n == f.v,
}


def _x_index(reg) -> int:
    if reg is None or reg.rclass is not RegClass.X:
        raise _Unsupported
    return reg.index


def _d_index(reg) -> int:
    if reg is None or reg.rclass is not RegClass.D:
        raise _Unsupported
    return reg.index


def _make_compute(d: DecodedOp):
    """Lower a register-writing ALU/FP/move op to
    ``compute(xregs, dregs) -> value`` plus its destination.  Raises
    :class:`_Unsupported` for anything outside the expected shapes."""
    inst = d.inst
    op = inst.opcode
    if op is Opcode.NOP:
        return None, None
    rd = inst.rd
    if op in _ALU2:
        a = _x_index(inst.rn)
        _x_index(rd)
        f = _ALU2[op]
        if inst.rm is not None:
            b = _x_index(inst.rm)
            return (lambda x, dr: f(x[a], x[b])), rd
        if inst.imm is None:
            raise _Unsupported
        imm = int(inst.imm) & MASK64
        return (lambda x, dr: f(x[a], imm)), rd
    if op is Opcode.MADD:
        a = _x_index(inst.rn)
        b = _x_index(inst.rm)
        c = _x_index(inst.ra)
        _x_index(rd)
        return (lambda x, dr: (x[a] * x[b] + x[c]) & MASK64), rd
    if op is Opcode.MOV:
        _x_index(rd)
        if inst.rn is not None:
            a = _x_index(inst.rn)
            return (lambda x, dr: x[a]), rd
        if inst.imm is None:
            raise _Unsupported
        imm = int(inst.imm) & MASK64
        return (lambda x, dr: imm), rd
    if op is Opcode.ADR:
        _x_index(rd)
        if inst.imm is None:
            raise _Unsupported
        imm = int(inst.imm) & MASK64
        return (lambda x, dr: imm), rd
    if op is Opcode.FMOV:
        _d_index(rd)
        if inst.rn is not None:
            a = _d_index(inst.rn)
            return (lambda x, dr: dr[a]), rd
        if inst.imm is None:
            raise _Unsupported
        imm = float(inst.imm)
        return (lambda x, dr: imm), rd
    if op is Opcode.FADD:
        a, b = _d_index(inst.rn), _d_index(inst.rm)
        _d_index(rd)
        return (lambda x, dr: dr[a] + dr[b]), rd
    if op is Opcode.FSUB:
        a, b = _d_index(inst.rn), _d_index(inst.rm)
        _d_index(rd)
        return (lambda x, dr: dr[a] - dr[b]), rd
    if op is Opcode.FMUL:
        a, b = _d_index(inst.rn), _d_index(inst.rm)
        _d_index(rd)
        return (lambda x, dr: dr[a] * dr[b]), rd
    if op is Opcode.FMADD:
        a, b, c = (_d_index(inst.rn), _d_index(inst.rm),
                   _d_index(inst.ra))
        _d_index(rd)
        return (lambda x, dr: dr[a] * dr[b] + dr[c]), rd
    raise _Unsupported


def _addr_lowering(d: DecodedOp):
    """Lower the addressing mode to ``(addr_fn(xregs), writeback_fn)``.

    ``addr_fn`` returns the effective address; ``writeback_fn`` is None or
    ``(xregs) -> new_base`` for post-index.  The base is an X register."""
    inst = d.inst
    rn = _x_index(inst.rn)
    mode = inst.mode
    if mode is AddrMode.OFF_IMM:
        imm = int(inst.imm or 0)
        return (lambda x: (x[rn] + imm) & MASK64), None
    if mode is AddrMode.OFF_REG:
        rm = _x_index(inst.rm)
        sh = inst.shift
        return (lambda x: (x[rn] + ((x[rm] << sh) & MASK64)) & MASK64), None
    if mode is AddrMode.POST_IMM:
        imm = int(inst.imm or 0)
        return (lambda x: x[rn] & MASK64), (lambda x: (x[rn] + imm) & MASK64)
    raise _Unsupported


# ------------------------------------------------------ per-op classification
def _barrel_peek(ops: List[DecodedOp], at: int, prefix: str,
                 sw: Set[str], consts: dict) -> None:
    """Record what a barrel step needs of its successor ``ops[at]`` to post
    the thread's next operand-ready time without touching the decoded
    program at run time: its source flats (a constant) and whether it
    reads the flags (a switch)."""
    if not 0 <= at < len(ops):
        raise _Unsupported
    consts[prefix + "_FLATS"] = ops[at].src_flats
    if ops[at].reads_flags:
        sw.add(prefix.lower() + "_flags")


def _lower(ops: List[DecodedOp], pc: int,
           variant: EngineVariant) -> Tuple[str, Set[str], dict]:
    """Classify ``ops[pc]`` as ``(op class, switches, constants)``.

    The switches select template code (with the family and class they are
    the *shape*); the constants are the per-pc values the step closes
    over.  Which constant names a shape has must depend on the shape
    alone: its factory takes its signature from the first op compiled.
    """
    d = ops[pc]
    inst = d.inst
    op = inst.opcode
    barrel = variant.family == "barrel"
    sw: Set[str] = set()
    consts = {"LAT": d.ex_latency, "SRC_FLATS": d.src_flats, "NEXT": pc + 1}
    if not barrel:
        consts.update(D=d, LINE=d.line, ADDR=d.addr)
        if variant.reg_hook:
            sw.add("reg_hook")
        if variant.commit_hook:
            sw.add("commit_hook")
    if d.reads_flags:
        sw.add("reads_flags")
    if d.is_halt:
        return "halt", sw, consts
    if d.is_branch:
        if inst.target is None:
            raise _Unsupported
        consts["TARGET"] = inst.target
        if op is Opcode.BCOND:
            sw.add("bcond")
            consts["TEST"] = _COND_TESTS[inst.cond]
        elif op is not Opcode.B:
            sw.add("cbz")
            consts.update(RN=_x_index(inst.rn), WANT_ZERO=op is Opcode.CBZ)
        if barrel:
            _barrel_peek(ops, inst.target, "TGT", sw, consts)
            if op is not Opcode.B:      # B never falls through
                _barrel_peek(ops, pc + 1, "FT", sw, consts)
        return "branch", sw, consts
    if barrel:
        _barrel_peek(ops, pc + 1, "ND", sw, consts)
    if d.is_mem:
        addr_fn, wb_fn = _addr_lowering(d)
        rd = inst.rd
        if rd is None:
            raise _Unsupported
        consts.update(addr_fn=addr_fn, RD_IDX=rd.index)
        if rd.rclass is RegClass.X:
            sw.add("rd_x")
        if wb_fn is not None:
            sw.add("writeback")
            consts.update(wb_fn=wb_fn, RN_IDX=inst.rn.index,
                          RN_FLAT=inst.rn.flat)
        if d.is_store:
            return "str", sw, consts
        consts["RD_FLAT"] = rd.flat
        if variant.miss_switch and not barrel:
            sw.add("miss_switch")
        return "ldr", sw, consts
    if op is Opcode.CMP:
        consts["RN"] = _x_index(inst.rn)
        if inst.rm is not None:
            sw.add("has_rm")
            consts["RM"] = _x_index(inst.rm)
        elif inst.imm is None:
            raise _Unsupported
        else:
            consts["IMM_B"] = int(inst.imm) & MASK64
        return "cmp", sw, consts
    compute, rd = _make_compute(d)
    if rd is not None:
        sw.add("has_dest")
        if rd.rclass is RegClass.X:
            sw.add("rd_x")
        consts.update(compute=compute, RD_IDX=rd.index, RD_FLAT=rd.flat)
    return "simple", sw, consts


# ------------------------------------------------------------ the stage rules
#
# Source fragments, each stating one rule of the pipeline (Fig 4) once.
# CAPITALS (and compute / addr_fn / wb_fn) are the per-pc constants the
# factory closes over; $NAMES are filled in by _step_source.  ``sb`` is
# the running thread's writer scoreboard in both families, keyed by flat
# register index.

_FETCH_DECODE = """\
# fetch: the op reaches decode once the front end delivers it and decode
# is free; entering a new icache line pays the icache access
fa = core.fetch_avail
t_d = core.decode_free
if fa > t_d:
    t_d = fa
if LINE != core._last_fetch_line:
    core._last_fetch_line = LINE
    ic = core.icache
    t0 = t_d - ic.config.latency
    r = ic.access(t0 if t0 > 0 else 0, ADDR, requestor=core.core_id)
    if not r.hit:
        core.stats.inc("icache_miss_stalls")
    if r.complete_at > t_d:
        t_d = r.complete_at
# decode: one cycle, then wait for the operands
sb = core.scoreboard
t_issue = t_d + 1
"""

_BARREL_ISSUE = """\
# issue: one slot per cycle shared by all threads, and no earlier than
# the operand-ready peek this thread's previous step posted
tid = thread.tid
ir = core._issue_ready
sb = core._boards[tid]
t_issue = core.decode_free + 1
iri = ir[tid]
if iri > t_issue:
    t_issue = iri
"""


def _operand_wait(flats: str, reads_flags: bool, t: str) -> str:
    """``t`` waits for the last writer of every register in ``flats`` and,
    for a flag reader, of the flags: the operand-ready rule, applied to
    the op itself at decode/issue and to its successor in the barrel's
    peek."""
    text = (f"for f in {flats}:\n"
            f"    w = sb.get(f, 0)\n"
            f"    if w > {t}:\n"
            f"        {t} = w\n")
    if reads_flags:
        text += (f"fr = $FLAGS_READY\n"
                 f"if fr > {t}:\n"
                 f"    {t} = fr\n")
    return text


_REG_HOOK = """\
# register residency (the VRMU: fills and evictions happen in here)
t_regs = core.decode_regs_ready(thread, D, t_d)
if t_regs > t_issue:
    t_issue = t_regs
"""

_FETCH_ADVANCE = """\
# the front end delivers the next op one cycle behind this one
fa += 1
t_d1 = t_d + 1
core.fetch_avail = fa if fa > t_d1 else t_d1
"""

_EXECUTE = """\
# execute: one shared EX pipe
ex = core.ex_free
t_ex_done = (t_issue if t_issue > ex else ex) + LAT
core.ex_free = t_ex_done
"""

_LDR_MEM = """\
# mem: a load waits for an outstanding-load slot, then the dcache port
x = thread.xregs
addr = addr_fn(x)
t_m = core._load_slot_wait(t_ex_done)
t_issue_mem, r = core.dcache_request(t_m, addr, is_load_data=True)
data_at = r.complete_at
"""

_MISS_SWITCH = """\
if r.switch_signal:
    if core._handle_miss_switch(thread, t_issue_mem, r):
        return 1    # thread suspended; the load replays on resume
    core.stats.inc("switches_suppressed")
"""

_LDR_MISSED = """\
if not r.hit:
    core.stats.inc("load_miss_stalls")
"""

_STR_MEM = """\
# mem: store value and address are both read before any writeback
x = thread.xregs
sv = thread.$RF[RD_IDX]
addr = addr_fn(x)
data_at = core._sq_insert(t_ex_done, addr)
core.memory.store(addr, sv)
"""

_COMMIT = """\
# commit: in order, one per cycle, no earlier than the result
t_c = core.commit_tail + 1
if $DONE > t_c:
    t_c = $DONE
core.commit_tail = t_c
"""

_TIMELINE_RETIRE = """\
core.commits_since_switch += 1
thread.fruitless = 0
"""

_WRITEBACK = """\
# post-index writeback lands before the destination, so
# ldr xN, [xN], #imm resolves exactly as instructions.evaluate orders it
x[RN_IDX] = wb_fn(x)
sb[RN_FLAT] = t_ex_done
"""

_LDR_UPDATE = """\
v = core.memory.load(addr)
thread.$RF[RD_IDX] = $LOADED
sb[RD_FLAT] = data_at
"""

_SIMPLE_UPDATE = """\
thread.$RF[RD_IDX] = compute(thread.xregs, thread.dregs)
sb[RD_FLAT] = t_ex_done
"""

_CMP_UPDATE = """\
# NZCV, exactly as instructions.evaluate computes it
x = thread.xregs
a = x[RN]
b = $CMP_B
diff = (a - b) & MASK64
sa = a - _U64 if a & SIGN64 else a
sbv = b - _U64 if b & SIGN64 else b
sd = diff - _U64 if diff & SIGN64 else diff
thread.flags = Flags(bool(diff & SIGN64), diff == 0, a >= b,
                     (sa - sbv) != sd)
$FLAGS_READY = t_ex_done
"""

_REDIRECT = """\
core.fetch_avail = t_ex_done + 1 + core.config.redirect_penalty
core.stats.inc("taken_branches")
"""

_BARREL_REDIRECT = """\
# barrel cores still pay the fetch redirect for taken branches
rp = t_ex_done + core.config.redirect_penalty
if rp > t_next:
    t_next = rp
"""


def _step_source(family: str, cls: str, sw: FrozenSet[str]) -> str:
    """Body of ``step(core, thread)`` for one shape: the family's stage
    fragments in pipeline order, the op class's fragments between them."""
    barrel = family == "barrel"
    on = sw.__contains__
    src = [_BARREL_ISSUE if barrel else _FETCH_DECODE,
           _operand_wait("SRC_FLATS", on("reads_flags"), "t_issue")]
    if on("reg_hook"):
        src.append(_REG_HOOK)
    src.append("core.decode_free = t_issue\n")
    if not barrel:
        src.append(_FETCH_ADVANCE)
    src.append(_EXECUTE)

    if cls == "ldr":
        src.append(_LDR_MEM)
        if on("miss_switch"):
            src.append(_MISS_SWITCH)
        if not barrel:
            src.append("core.load_slots.append(data_at)\n")
        src.append(_LDR_MISSED)
    elif cls == "str":
        src.append(_STR_MEM)

    src.append(_COMMIT)
    if not barrel:
        src.append(_TIMELINE_RETIRE)
    if cls != "halt":           # halt commits but is not an instruction
        src.append("thread.instructions += 1\n")
    src.append("core.now = min(ir.values())\n" if barrel
               else "core.now = t_c\n")

    # architectural update, at commit: flushed ops never reach it
    if on("writeback"):
        src.append(_WRITEBACK)
    if cls == "ldr":
        src.append(_LDR_UPDATE)
    elif cls == "cmp":
        src.append(_CMP_UPDATE)
    elif on("has_dest"):
        src.append(_SIMPLE_UPDATE)
    elif on("bcond"):
        src.append("taken = TEST(thread.flags)\n")
    elif on("cbz"):
        src.append("taken = (thread.xregs[RN] == 0) == WANT_ZERO\n")
    if on("commit_hook"):
        src.append("core.on_commit(thread, D, t_c)\n")

    def peek(prefix: str) -> str:
        # barrel successor-peek: when could this thread issue again?  The
        # scheduler runs other threads while it waits on a load
        return ("t_next = t_issue + 1\n" + _operand_wait(
            prefix + "_FLATS", on(prefix.lower() + "_flags"), "t_next"))

    if cls == "halt":
        src.append("core._halt_thread(thread)\n")
    elif cls == "branch":
        taken = "thread.pc = TARGET\n" + (
            peek("TGT") + _BARREL_REDIRECT if barrel else _REDIRECT)
        fall = "thread.pc = NEXT\n" + (peek("FT") if barrel else "")
        if on("bcond") or on("cbz"):
            src += ["if taken:\n", indent(taken, "    "),
                    "else:\n", indent(fall, "    ")]
        else:
            src.append(taken)
    else:
        src.append("thread.pc = NEXT\n" + (peek("ND") if barrel else ""))
    if barrel and cls != "halt":
        src.append("ir[tid] = t_next\n")
    src.append("return 1 + CHAIN(core, thread)\n" if on("chain")
               else "return 1\n")

    rd_x = on("rd_x")
    return Template("".join(src)).substitute(
        DONE="data_at" if cls in ("ldr", "str") else "t_ex_done",
        FLAGS_READY="core._flags_ready[tid]" if barrel else "core.flags_ready",
        RF="xregs" if rd_x else "dregs",
        LOADED="int(v) & MASK64" if rd_x else "float(v)",
        CMP_B="x[RM]" if on("has_rm") else "IMM_B")


#: exec-compiled step factories, one per shape, for the whole process.  A
#: shape is (family, op class, switches) and holds no per-pc value, so a
#: sweep that assembles hundreds of programs still compiles each shape
#: once (~0.4 ms) and every pc after that costs one factory call.
_FACTORIES: Dict[Tuple[str, str, FrozenSet[str]], Callable] = {}


def _step_factory(family: str, cls: str, sw: FrozenSet[str],
                  consts: dict) -> Callable:
    """The factory ``make(<constant names>) -> step`` of one shape; the
    names are those of ``consts``, the first op compiled with the shape."""
    shape = (family, cls, sw)
    factory = _FACTORIES.get(shape)
    if factory is None:
        filename = f"<{__name__} {family}.{cls} {'+'.join(sorted(sw))}>"
        source = (f"def make({', '.join(consts)}):\n"
                  f"    def step(core, thread):\n"
                  f"{indent(_step_source(family, cls, sw), ' ' * 8)}"
                  f"    return step\n")
        # known to linecache, so a traceback through a generated step
        # shows the failing source line
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace: dict = {}
        # the fragments resolve MASK64, SIGN64, Flags and _U64 in this
        # module's globals
        exec(compile(source, filename, "exec"), globals(), namespace)
        factory = _FACTORIES[shape] = namespace["make"]
    return factory
