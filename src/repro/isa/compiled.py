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
destination register file, chaining, attached instruments, the operand
pattern of a generated ViReC register stage — is a
template switch that leaves code out instead of testing a constant at
run time.  The op's own expressions (value, address, post-index
writeback, branch test) are part of the shape too, written over per-pc
constants (``(x[A] + IMM) & MASK64``).  Each shape is ``exec``-compiled
once per process into a factory taking the per-pc constants
(:data:`_FACTORIES`), so compiling a program costs one factory call per
pc, however many programs a sweep assembles.

This table is the simulator's only step engine.  A core with a fault hook
or an observer attached runs its *observed* variant: the same fragments
plus the fault hook at fetch and the :class:`~repro.core.instrument.
Observer` events where they happen — one ``on_commit`` after the
architectural update and the core's commit hook, ``on_stall`` on a masked
switch, ``on_thread_done`` after a HALT.

Step contract:

* signature ``(core, thread) -> int`` — the number of instructions
  processed (>= 1; a superop returns its chain length so the run-loop
  watchdogs count every instruction);
* steps close over **only static program facts** (indices, immediates,
  latencies, successor steps); what an op computes — its value, address,
  post-index writeback and branch test — is source in its shape, so a
  step closes over no callable but its successor.  Everything dynamic is
  read from ``core`` per call — including every method a subclass, a
  class-level tracer or a test may rebind (``ic.access``,
  ``core.dcache.access``, ``core.decode_regs_ready``, ``core.on_commit``,
  ``core._handle_miss_switch``) — so one compiled table is shared by every
  core over the same program;
* a demand load or store applies ``core.dcache_request``'s port rule
  inline and calls ``core.dcache.access`` itself; ``core.dcache_request``
  is reached only on a refusal (``CacheBusy``), ``core._load_slot_wait`` /
  ``core._sq_insert`` only when the load slots / store queue (min-heaps)
  are full;
* a ViReC step with the register stage generated (``vrmu_inline``)
  touches an op's registers itself when all are resident (reading
  ``core.vrmu`` per call); ``core.decode_regs_ready`` is reached on a
  miss, a thread's first access or a thread with a suspension on record,
  and always from the observed variant; with ``"hit+commit"``
  ``core.on_commit`` is not called at all;
* only observed shapes read ``core._fault_hook``, ``core._observers``
  (``on_commit``) or the per-event tuples ``core._on_stall`` /
  ``core._on_thread_done`` (the observers that override the event, handed
  out by ``TimelineCore._hand_sinks``); ``TimelineCore._recompile_step``
  picks the variant whenever the hook or the observers are assigned;
* the cycle math equals the interpreted bodies kept as the test oracle
  (tests/core/reference_step.py); the equivalence suite
  (tests/core/test_engine_equivalence.py) holds the table byte-identical
  to them.  An op whose operand shape the lowering cannot express raises
  :class:`~repro.errors.LoweringError` when the table is compiled.

Compiled tables are cached on the ``DecodedProgram`` (itself cached per
(program, icache line size)) keyed by :class:`EngineVariant`, so closures
never leak across (program, line-size, core-variant) combinations.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass
from heapq import heappop, heappush
from string import Template
from textwrap import indent
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import LoweringError
from ..memory.cache import CacheBusy
from .decoded import DecodedOp, DecodedProgram
from .instructions import MASK64, SIGN64, AddrMode, Cond, Flags, Opcode
from .registers import RegClass

__all__ = ["EngineVariant", "CompiledProgram", "compile_program",
           "MAX_CHAIN"]

#: longest superop chain (bounds Python recursion depth per step)
MAX_CHAIN = 48

#: an op's own expressions by template name, sorted: its value
#: (``VALUE``), effective address (``EA``), post-index base (``WB``) or
#: branch test (``TEST``).  Part of the step's shape
Forms = Tuple[Tuple[str, str], ...]

#: engine families a core can compile for
FAMILIES = ("timeline", "barrel")


@dataclass(frozen=True)
class EngineVariant:
    """The compile key: everything a step's code shape depends on.

    Two cores whose variants compare equal can share one compiled table;
    anything that changes the emitted code (which hooks fire, whether a
    load can context-switch, which ops a superop may chain) must be a
    field here — that is the cache-keying guarantee
    ``tests/isa/test_compiled.py`` pins down.
    """

    family: str = "timeline"       # "timeline" | "barrel"
    reg_hook: bool = False         # decode_regs_ready overridden (VRMU)
    commit_hook: bool = False      # on_commit overridden
    miss_switch: bool = False      # switch_on_miss and >1 thread
    #: the core shares its crossbar with peer cores (a multi-core node).
    #: The node steps the core with the smallest local clock, so a
    #: superop may only chain the ops no peer can observe: see
    #: :func:`_build_code` for the rule.
    shared: bool = False
    #: a fault hook or an observer is attached.  Derived by the core from
    #: its ``fault_hook`` / ``observers``; not a user option.
    observed: bool = False
    #: how much of the ViReC register stage the step states itself instead
    #: of calling the core's hooks: ``""`` none; ``"hit"`` the all-resident
    #: decode lookup (a miss still calls ``core.decode_regs_ready``) and no
    #: hook call for an op without registers; ``"hit+commit"`` also the
    #: commit-time rollback pop of a policy without dead hints.  Derived by
    #: a :class:`~repro.virec.core.ViReCCore` from its policy (see its
    #: ``_engine_variant``); not a user option.
    vrmu_inline: str = ""


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
    every instruction, so a chain would defeat the rotation.

    A ``shared`` core chains pc into pc+1 only when pc+1 cannot reach
    state a peer core sees: it is no ``ldr``/``str`` and sits on pc's
    icache line (an icache miss goes to the crossbar).  Its VRMU hooks
    (a fill or spill may miss the dcache) and its observers (all cores of
    a node share one event ring, ordered by call) keep it to single-op
    steps.  Such an op commutes with every peer step, and the op after
    the chain is picked at the same node-minimum clock it would have been
    picked at one op at a time, so crossbar/DRAM order is unchanged.  A
    step may still *start* at a memory op."""
    ops = dprog.ops
    n = len(ops)
    shared = variant.shared
    chains = variant.family == "timeline" and not (
        shared and (variant.observed or variant.reg_hook
                    or variant.commit_hook or variant.vrmu_inline))
    leaders = _block_leaders(dprog) if chains else None
    code: List[Optional[Callable]] = [None] * n
    depth = [0] * n
    for pc in range(n - 1, -1, -1):
        d = ops[pc]
        chain = None
        npc = pc + 1
        if (leaders is not None and not d.is_branch and not d.is_halt
                and npc < n and npc not in leaders
                and depth[npc] < MAX_CHAIN
                and not (shared and (ops[npc].is_mem
                                     or ops[npc].line != d.line))):
            chain = code[npc]
            depth[pc] = depth[npc] + 1
        code[pc] = _make_step(ops, pc, variant, chain)
    return code


def _make_step(ops: List[DecodedOp], pc: int, variant: EngineVariant,
               chain: Optional[Callable]) -> Callable:
    try:
        cls, switches, consts, forms = _lower(ops, pc, variant)
    except LoweringError:
        inst = ops[pc].inst
        text = inst.text or inst.opcode.name.lower()
        raise LoweringError(f"pc {pc}: the {variant.family} step cannot "
                            f"be generated for {text!r}") from None
    if chain is not None:
        switches.add("chain")
        consts["CHAIN"] = chain
    return _step_factory(variant.family, cls, frozenset(switches),
                         tuple(sorted(forms.items())), consts)(**consts)


# --------------------------------------------------------------- op lowering
_U64 = 1 << 64


def _asr(a: int, b: int) -> int:
    a &= MASK64
    if a & SIGN64:
        a -= _U64
    return (a >> (b & 63)) & MASK64


#: what an op computes, as source: a two-operand ALU op over its operands
#: ``{a}`` and ``{b}``, a ``b.cond`` test over the flags ``f``
_SOURCE = {
    Opcode.ADD: "({a} + {b}) & MASK64",
    Opcode.SUB: "({a} - {b}) & MASK64",
    Opcode.AND: "{a} & {b}",
    Opcode.ORR: "{a} | {b}",
    Opcode.EOR: "{a} ^ {b}",
    Opcode.LSL: "({a} << ({b} & 63)) & MASK64",
    Opcode.LSR: "({a} & MASK64) >> ({b} & 63)",
    Opcode.MUL: "({a} * {b}) & MASK64",
    Opcode.ASR: "_asr({a}, {b})",
    Cond.EQ: "f.z",
    Cond.NE: "not f.z",
    Cond.LT: "f.n != f.v",
    Cond.LE: "f.z or f.n != f.v",
    Cond.GT: "not f.z and f.n == f.v",
    Cond.GE: "f.n == f.v",
}

#: the FP ops, over the D registers ``dr``
_FP_SOURCE = {
    Opcode.FADD: "dr[A] + dr[B]",
    Opcode.FSUB: "dr[A] - dr[B]",
    Opcode.FMUL: "dr[A] * dr[B]",
    Opcode.FMADD: "dr[A] * dr[B] + dr[C]",
}


def _x_index(reg) -> int:
    if reg is None or reg.rclass is not RegClass.X:
        raise LoweringError
    return reg.index


def _d_index(reg) -> int:
    if reg is None or reg.rclass is not RegClass.D:
        raise LoweringError
    return reg.index


def _imm(inst) -> int:
    if inst.imm is None:
        raise LoweringError
    return int(inst.imm) & MASK64


def _make_compute(d: DecodedOp, consts: dict):
    """Lower a register-writing ALU/FP/move op to ``(value, rd)``: the
    value as an expression over the registers ``x`` / ``dr`` and the
    constants it adds to ``consts`` (``A``, ``B``, ``C``, ``IMM``), and its
    destination.  Raises :class:`~repro.errors.LoweringError` for anything
    outside the expected shapes."""
    inst = d.inst
    op = inst.opcode
    if op is Opcode.NOP:
        return None, None
    rd = inst.rd
    if op in _SOURCE:
        consts["A"] = _x_index(inst.rn)
        _x_index(rd)
        if inst.rm is not None:
            consts["B"] = _x_index(inst.rm)
            b = "x[B]"
        else:
            consts["IMM"] = _imm(inst)
            b = "IMM"
        return _SOURCE[op].format(a="x[A]", b=b), rd
    if op is Opcode.MADD:
        consts.update(A=_x_index(inst.rn), B=_x_index(inst.rm),
                      C=_x_index(inst.ra))
        _x_index(rd)
        return "(x[A] * x[B] + x[C]) & MASK64", rd
    if op is Opcode.MOV or op is Opcode.ADR:
        _x_index(rd)
        if op is Opcode.MOV and inst.rn is not None:
            consts["A"] = _x_index(inst.rn)
            return "x[A]", rd
        consts["IMM"] = _imm(inst)
        return "IMM", rd
    if op is Opcode.FMOV:
        _d_index(rd)
        if inst.rn is not None:
            consts["A"] = _d_index(inst.rn)
            return "dr[A]", rd
        if inst.imm is None:
            raise LoweringError
        consts["IMM"] = float(inst.imm)
        return "IMM", rd
    if op in _FP_SOURCE:
        consts.update(A=_d_index(inst.rn), B=_d_index(inst.rm))
        if op is Opcode.FMADD:
            consts["C"] = _d_index(inst.ra)
        _d_index(rd)
        return _FP_SOURCE[op], rd
    raise LoweringError


def _addr_lowering(d: DecodedOp, consts: dict):
    """Lower the addressing mode to ``(address, writeback)``: the effective
    address as an expression over ``x``, and None or, for post-index, the
    base register's new value.  The base is the X register ``RN_IDX``."""
    inst = d.inst
    consts["RN_IDX"] = _x_index(inst.rn)
    mode = inst.mode
    if mode is AddrMode.OFF_IMM:
        consts["IMM"] = int(inst.imm or 0)
        return "(x[RN_IDX] + IMM) & MASK64", None
    if mode is AddrMode.OFF_REG:
        consts.update(RM_IDX=_x_index(inst.rm), SH=inst.shift)
        return ("(x[RN_IDX] + ((x[RM_IDX] << SH) & MASK64)) & MASK64",
                None)
    if mode is AddrMode.POST_IMM:
        consts["IMM"] = int(inst.imm or 0)
        return "x[RN_IDX] & MASK64", "(x[RN_IDX] + IMM) & MASK64"
    raise LoweringError


# ------------------------------------------------------ per-op classification
def _barrel_peek(ops: List[DecodedOp], at: int, prefix: str,
                 sw: Set[str], consts: dict) -> None:
    """Record what a barrel step needs of its successor ``ops[at]`` to post
    the thread's next operand-ready time without touching the decoded
    program at run time: its source flats (a constant) and whether it
    reads the flags (a switch)."""
    if not 0 <= at < len(ops):
        raise LoweringError
    consts[prefix + "_FLATS"] = ops[at].src_flats
    if ops[at].reads_flags:
        sw.add(prefix.lower() + "_flags")


def _lower(ops: List[DecodedOp], pc: int, variant: EngineVariant
           ) -> Tuple[str, Set[str], dict, Dict[str, str]]:
    """Classify ``ops[pc]`` as ``(op class, switches, constants, forms)``.

    The switches select template code and the forms are the op's own
    expressions (``VALUE``, ``EA``, ``WB``, ``TEST``); with the family
    and class they are the *shape*.  The constants are the per-pc values
    the step closes over.  Which constant names a shape has must depend on
    the shape alone: its factory takes its signature from the first op
    compiled.
    """
    d = ops[pc]
    inst = d.inst
    op = inst.opcode
    barrel = variant.family == "barrel"
    sw: Set[str] = set()
    forms: Dict[str, str] = {}
    consts = {"LAT": d.ex_latency, "SRC_FLATS": d.src_flats, "NEXT": pc + 1}
    if not barrel:
        consts.update(D=d, LINE=d.line, ADDR=d.addr)
        if not variant.vrmu_inline:
            if variant.reg_hook:
                sw.add("reg_hook")
            if variant.commit_hook:
                sw.add("commit_hook")
        elif d.plan:
            # the generated ViReC register stage; an op without registers
            # has none
            sw.add(_REGS + "".join("d" if operand[2] else "s"
                                   for operand in d.plan))
            consts.update((f"FLAT{i}", operand[1])
                          for i, operand in enumerate(d.plan))
            sw.add("commit_pop" if variant.vrmu_inline == "hit+commit"
                   else "commit_hook")
    elif variant.observed:
        consts["D"] = d             # what the instruments are handed
    if variant.observed:
        sw.add("observed")
    if d.reads_flags:
        sw.add("reads_flags")
    if d.is_halt:
        return "halt", sw, consts, forms
    if d.is_branch:
        if inst.target is None:
            raise LoweringError
        consts["TARGET"] = inst.target
        if op is Opcode.BCOND:
            sw.add("bcond")
            forms["TEST"] = _SOURCE[inst.cond]
        elif op is not Opcode.B:
            sw.add("cbz")
            consts["RN"] = _x_index(inst.rn)
            forms["TEST"] = ("x[RN] == 0" if op is Opcode.CBZ
                             else "x[RN] != 0")
        if barrel:
            _barrel_peek(ops, inst.target, "TGT", sw, consts)
            if op is not Opcode.B:      # B never falls through
                _barrel_peek(ops, pc + 1, "FT", sw, consts)
        return "branch", sw, consts, forms
    if barrel:
        _barrel_peek(ops, pc + 1, "ND", sw, consts)
    if d.is_mem:
        forms["EA"], wb = _addr_lowering(d, consts)
        rd = inst.rd
        if rd is None:
            raise LoweringError
        consts["RD_IDX"] = rd.index
        if rd.rclass is RegClass.X:
            sw.add("rd_x")
        if wb is not None:
            forms["WB"] = wb
            consts["RN_FLAT"] = inst.rn.flat
        if d.is_store:
            return "str", sw, consts, forms
        consts["RD_FLAT"] = rd.flat
        if variant.miss_switch and not barrel:
            sw.add("miss_switch")
        return "ldr", sw, consts, forms
    if op is Opcode.CMP:
        consts["RN"] = _x_index(inst.rn)
        if inst.rm is not None:
            sw.add("has_rm")
            consts["RM"] = _x_index(inst.rm)
        elif inst.imm is None:
            raise LoweringError
        else:
            consts["IMM_B"] = int(inst.imm) & MASK64
        return "cmp", sw, consts, forms
    value, rd = _make_compute(d, consts)
    if rd is not None:
        if rd.rclass is RegClass.X:
            sw.add("rd_x")
        forms["VALUE"] = value
        consts.update(RD_IDX=rd.index, RD_FLAT=rd.flat)
    return "simple", sw, consts, forms


# ------------------------------------------------------------ the stage rules
#
# Source fragments, each stating one rule of the pipeline (Fig 4) once.
# CAPITALS are the per-pc constants the factory closes over; $NAMES are
# filled in by _step_source, $VALUE / $EA / $WB / $TEST with the op's own
# expressions over ``x`` / ``dr`` (its register files) and ``f`` (its
# flags).  ``sb`` is the running thread's writer scoreboard in both
# families, keyed by flat register index.

_FETCH = """\
# fetch: the op reaches decode once the front end delivers it and decode
# is free; entering a new icache line pays the icache access, re-presented
# while the icache refuses it
fa = core.fetch_avail
t_d = core.decode_free
if fa > t_d:
    t_d = fa
if LINE != core._last_fetch_line:
    core._last_fetch_line = LINE
    ic = core.icache
    t0 = t_d - ic.config.latency
    if t0 < 0:
        t0 = 0
    while True:
        try:
            fetched, ic_hit, _ = ic.access(t0, ADDR, requestor=core.core_id)
            break
        except CacheBusy as refused:
            t0 = refused.retry_at
    if not ic_hit:
        core.stats.inc("icache_miss_stalls")$NOTE_ICACHE_MISS
    if fetched > t_d:
        t_d = fetched
"""

_DECODE = """\
# decode: one cycle, then wait for the operands
sb = core.scoreboard
t_issue = t_d + 1
"""

_BARREL_THREAD = """\
# issue: one slot per cycle shared by all threads, and no earlier than
# the operand-ready peek this thread's previous step posted
tid = thread.tid
ir = core._issue_ready
"""

_BARREL_ISSUE = """\
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


#: the switch naming a generated register stage, followed by the op's
#: operand pattern (``d`` a destination, ``s`` a source, in plan order)
_REGS = "regs_"


def _register_operands(sw: FrozenSet[str]) -> Optional[str]:
    """The operand pattern of a shape with a generated register stage."""
    return next((name[len(_REGS):] for name in sw
                 if name.startswith(_REGS)), None)


_REGISTER_HITS = Template("""\
# register residency: an op whose operands are all resident is touched
# here; any other goes through the VRMU (fills and evictions)
vrmu = core.vrmu
ts = vrmu.tagstore
policy = ts.policy
rows = ts.rows
tid = thread.tid
t_regs = -1
if tid not in policy.suspended_at:
    try:
        row = rows[tid]
    except IndexError:
        pass                    # the thread's first access
    else:
$LOOKUP        if $RESIDENT:
            clock = policy._clock = policy._clock + 1
            word, zeroed_at = policy.word, policy.zeroed_at
            stamp, dirty, fill_ready = policy.stamp, ts.dirty, ts.fill_ready
            t_regs = t_d
$TOUCH            # the pending cells ACCESSES and HITS of repro.virec.vrmu
            pending = vrmu._pending
            pending[0] += $N
            pending[1] += $N
            rollback = vrmu.rollback
            queue = rollback._queue
            if len(queue) >= rollback.depth:
                queue.popleft()
                rollback.stats.inc("overflow")
            queue.append(([$SLOTS], $IS_MEM))
if t_regs < 0:
    t_regs = core.decode_regs_ready(thread, D, t_d)
if t_regs > t_issue:
    t_issue = t_regs
""")


def _register_hits(operands: str, is_mem: bool) -> str:
    """The VRMU's decode lookup when every operand is resident (Section
    5.1): ``VRMU.access``'s hit half, unrolled over the op's operands —
    one tag lookup and the base policy's touch per operand (the VRMU's
    touch rule), ``d``/``s`` in ``operands`` marking a destination or a
    source in plan order, their flat indices the constants ``FLAT0..``.
    Nothing is written until every operand is found resident.  A miss,
    the thread's first access or a suspended thread (a stamped write)
    hands the whole op to ``core.decode_regs_ready`` (``VRMU.access``), so
    the miss, victim and BSI order is the called path's.
    ``last_spill_wait`` is left to that path: its one reader, the cycle
    attributor, runs the observed variant."""
    slots = [f"s{i}" for i in range(len(operands))]
    touch = ""
    for slot, kind in zip(slots, operands):
        touch += (f"word[{slot}] = C_BIT\n"
                  f"zeroed_at[{slot}] = stamp[{slot}] = clock\n"
                  + (f"dirty[{slot}] = True\n" if kind == "d" else "")
                  + f"fr = fill_ready[{slot}]\n"
                  f"if fr > t_regs:\n"
                  f"    t_regs = fr\n")
    return _REGISTER_HITS.substitute(
        LOOKUP=indent("".join(f"{slot} = row[FLAT{i}]\n"
                              for i, slot in enumerate(slots)), " " * 8),
        RESIDENT=" and ".join(f"{slot} >= 0" for slot in slots),
        TOUCH=indent(touch, " " * 12), N=len(slots), SLOTS=", ".join(slots),
        IS_MEM=is_mem)


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

def _dcache_port(t: str, is_write: bool, done: str) -> str:
    """A demand access through the dcache port at cycle ``t``, under
    ``core.dcache_request``'s rule: one request per cycle.  A refused
    request is handed to ``core.dcache_request`` at its retry cycle, the
    next turn of that method's loop.  Binds ``t_issue_mem``, ``done``,
    ``hit`` and ``switch``."""
    w, ld = ("True", "False") if is_write else ("False", "True")
    return (f"pf = core.dcache_port_free\n"
            f"t_issue_mem = {t} if {t} > pf else pf\n"
            f"core.dcache_port_free = t_issue_mem + 1\n"
            f"try:\n"
            f"    {done}, hit, switch = core.dcache.access(\n"
            f"        t_issue_mem, addr, {w}, core.core_id, {ld}, False, 0)\n"
            f"except CacheBusy as refused:\n"
            f"    core.stats.inc(\"dcache_retries\")\n"
            f"    t_issue_mem, {done}, hit, switch = core.dcache_request(\n"
            f"        max(refused.retry_at, t_issue_mem + 1), addr, {w}, {ld})\n")


_LDR_MEM = """\
# mem: a load waits for an outstanding-load slot, then the dcache port.
# The slots are a min-heap of completion cycles: expired heads are dropped
# here, and only a full heap takes the waiting path
x = thread.xregs
addr = $EA
t_m = t_ex_done
slots = core.load_slots
while slots and slots[0] <= t_m:
    heappop(slots)
if len(slots) >= core.config.max_outstanding_loads:
    t_m = core._load_slot_wait(t_m)
""" + _dcache_port("t_m", False, "data_at")

_MISS_SWITCH = """\
if switch:
    if core._handle_miss_switch(thread, t_issue_mem, data_at):
        return 1    # thread suspended; the load replays on resume
    core.stats.inc("switches_suppressed")
"""

_LDR_MISSED = """\
if not hit:
    core.stats.inc("load_miss_stalls")
"""

_STR_MEM = """\
# mem: store value and address are both read before any writeback.  The
# store queue is a min-heap of drain-completion cycles: expired heads are
# dropped here, and only a full queue takes the waiting path; the store
# commits once the queue accepts it
x = thread.xregs
sv = $RF[RD_IDX]
addr = $EA
data_at = t_ex_done
sq = core.store_queue
while sq and sq[0] <= data_at:
    heappop(sq)
if len(sq) >= core.config.sq_entries:
    data_at = core._sq_insert(data_at, addr)
else:
""" + indent(_dcache_port("data_at", True, "drained") + "heappush(sq, drained)\n",
             "    ") + """\
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
x[RN_IDX] = $WB
sb[RN_FLAT] = t_ex_done
"""

_LDR_UPDATE = """\
v = core.memory.load(addr)
$RF[RD_IDX] = $LOADED
sb[RD_FLAT] = data_at
"""

_SIMPLE_UPDATE = """\
$RF_LOCAL[RD_IDX] = $VALUE
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

# The observed variant: the instruments, spliced in where they fire.

_FAULT_HOOK = """\
# the fault injector, at fetch: the one instrument that may move a
# timestamp (fault recovery costs cycles)
fh = core._fault_hook
if fh is not None:
    $FETCHED = fh.on_instruction(thread, D.inst, $FETCHED)
"""

# inside _MISS_SWITCH's ``if switch:``
_ON_STALL = """\
    for observer in core._on_stall:
        observer.on_stall(thread.tid, t_issue_mem, data_at,
                          "suppressed-switch")
"""

_COMMIT_POP = """\
# commit detection: the oldest rollback entry leaves (VRMU.on_commit
# without dead hints)
queue = core.vrmu.rollback._queue
if queue:
    queue.popleft()
"""

_ON_COMMIT = """\
# the one commit point: observers see exactly the committed state, with
# the instruction's own pc
for observer in core._observers:
    observer.on_commit(thread, D, $STAGES,
                       t_ex_done, $DONE, t_c, $MISSED)
"""

_ON_THREAD_DONE = """\
for observer in core._on_thread_done:
    observer.on_thread_done(thread.tid, t_c)
"""


def _step_source(family: str, cls: str, sw: FrozenSet[str],
                 forms: Forms) -> str:
    """Body of ``step(core, thread)`` for one shape: the family's stage
    fragments in pipeline order, the op class's fragments between them,
    the op's own expressions (``forms``) spliced into those."""
    barrel = family == "barrel"
    on = sw.__contains__
    form = dict(forms)
    rd_x = on("rd_x")
    observed = on("observed")
    if barrel:
        src = [_BARREL_THREAD, _FAULT_HOOK if observed else "",
               _BARREL_ISSUE,
               _operand_wait("SRC_FLATS", on("reads_flags"), "t_issue")]
    elif observed:
        # the observers are handed operand readiness on its own
        src = ["icache_missed = False\n", _FETCH, _FAULT_HOOK, _DECODE,
               "t_ops = t_d\n",
               _operand_wait("SRC_FLATS", on("reads_flags"), "t_ops"),
               "if t_ops > t_issue:\n    t_issue = t_ops\n"]
    else:
        src = [_FETCH, _DECODE,
               _operand_wait("SRC_FLATS", on("reads_flags"), "t_issue")]
    operands = _register_operands(sw)
    if on("reg_hook"):
        src.append(_REG_HOOK)
    elif operands:
        src.append(_register_hits(operands, cls in ("ldr", "str")))
    elif observed and not barrel:
        src.append("t_regs = t_d\n")
    src.append("core.decode_free = t_issue\n")
    if not barrel:
        src.append(_FETCH_ADVANCE)
    src.append(_EXECUTE)

    if cls == "ldr":
        src.append(_LDR_MEM)
        if on("miss_switch"):
            src.append(_MISS_SWITCH)
            if observed:
                src.append(_ON_STALL)
        if not barrel:
            src.append("heappush(slots, data_at)\n")
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
    if "WB" in form:
        src.append(_WRITEBACK)
    if cls == "ldr":
        src.append(_LDR_UPDATE)
    elif cls == "cmp":
        src.append(_CMP_UPDATE)
    elif "VALUE" in form:
        # bind the register files the value reads and the one it writes
        for rf, attr in (("x", "xregs"), ("dr", "dregs")):
            if (rf == "x") is rd_x or rf + "[" in form["VALUE"]:
                src.append(f"{rf} = thread.{attr}\n")
        src.append(_SIMPLE_UPDATE)
    elif "TEST" in form:
        src.append("f = thread.flags\n" if on("bcond")
                   else "x = thread.xregs\n")
        src.append("taken = $TEST\n")
    if on("commit_hook"):
        src.append("core.on_commit(thread, D, t_c)\n")
    elif on("commit_pop"):
        src.append(_COMMIT_POP)
    if observed:
        src.append(_ON_COMMIT)

    def peek(prefix: str) -> str:
        # barrel successor-peek: when could this thread issue again?  The
        # scheduler runs other threads while it waits on a load
        return ("t_next = t_issue + 1\n" + _operand_wait(
            prefix + "_FLATS", on(prefix.lower() + "_flags"), "t_next"))

    if cls == "halt":
        src.append("core._halt_thread(thread)\n")
        if observed:
            src.append(_ON_THREAD_DONE)
    elif cls == "branch":
        taken = "thread.pc = TARGET\n" + (
            peek("TGT") + _BARREL_REDIRECT if barrel else _REDIRECT)
        fall = "thread.pc = NEXT\n" + (peek("FT") if barrel else "")
        if "TEST" in form:
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

    return Template("".join(src)).substitute(
        form,
        DONE="data_at" if cls in ("ldr", "str") else "t_ex_done",
        FLAGS_READY="core._flags_ready[tid]" if barrel else "core.flags_ready",
        # the destination's register file: ``x`` is bound by then
        RF="x" if rd_x else "thread.dregs",
        RF_LOCAL="x" if rd_x else "dr",
        LOADED="int(v) & MASK64" if rd_x else "float(v)",
        CMP_B="x[RM]" if on("has_rm") else "IMM_B",
        NOTE_ICACHE_MISS="\n        icache_missed = True" if observed else "",
        FETCHED="ir[tid]" if barrel else "t_d",
        # the barrel has no decode stage: an op is "in decode" the cycle
        # before it issues, and its operands and registers are ready at
        # issue
        STAGES=("t_issue - 1, t_issue, t_issue, t_issue" if barrel
                else "t_d, t_ops, t_regs, t_issue"),
        MISSED=(("False" if barrel else "icache_missed") + ", "
                + ("not hit" if cls == "ldr" else "False")))


#: the names the fragments resolve besides their constants and builtins
_STEP_GLOBALS = {"MASK64": MASK64, "SIGN64": SIGN64, "_U64": _U64,
                 "_asr": _asr, "Flags": Flags, "CacheBusy": CacheBusy,
                 "heappop": heappop, "heappush": heappush}

#: exec-compiled step factories, one per shape, for the whole process.  A
#: shape is (family, op class, switches, forms) and holds no per-pc value:
#: the forms name registers and immediates by constant (``x[A] + IMM``),
#: so shapes stay bounded by opcode x operand form.  A sweep that
#: assembles hundreds of programs still compiles each shape once (1-2 ms
#: on a 2-core x86 host) and every pc after that costs one factory call.
_FACTORIES: Dict[Tuple[str, str, FrozenSet[str], Forms], Callable] = {}


def _step_factory(family: str, cls: str, sw: FrozenSet[str], forms: Forms,
                  consts: dict) -> Callable:
    """The factory ``make(<constant names>) -> step`` of one shape; the
    names are those of ``consts``, the first op compiled with the shape."""
    shape = (family, cls, sw, forms)
    factory = _FACTORIES.get(shape)
    if factory is None:
        filename = (f"<{__name__} {family}.{cls} {'+'.join(sorted(sw))}"
                    f"{''.join(f' {k}={v}' for k, v in forms)}>")
        source = (f"def make({', '.join(consts)}):\n"
                  f"    def step(core, thread):\n"
                  f"{indent(_step_source(*shape), ' ' * 8)}"
                  f"    return step\n")
        # known to linecache, so a traceback through a generated step
        # shows the failing source line
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        step_globals = dict(_STEP_GLOBALS)
        if _register_operands(sw):
            # imported here: virec sits above isa in the layer order
            from ..virec.policies import C_BIT
            step_globals["C_BIT"] = C_BIT
        namespace: dict = {}
        exec(compile(source, filename, "exec"), step_globals, namespace)
        factory = _FACTORIES[shape] = namespace["make"]
    return factory
