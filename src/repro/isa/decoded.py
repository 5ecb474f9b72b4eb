"""Pre-decoded instruction metadata (the engine's static decode pass).

Everything the timeline engine needs per committed instruction that is a
*static* property of the instruction — operand register tuples, flag
read/write behaviour, memory/branch classification, execute latency, and
the icache line the instruction's fetch touches — is computed once per
:class:`~repro.isa.program.Program` and packed into a
:class:`DecodedProgram` of ``__slots__``-only :class:`DecodedOp` records.

Before this pass existed, ``TimelineCore._process_instruction`` re-derived
each of these through ``Instruction`` properties on every commit (an
``EX_LATENCY`` dict probe, several ``Opcode`` enum compares, and a handful
of descriptor lookups per instruction).  Pre-decoding moves that work to
core construction time, which is what makes the uninstrumented hot loop's
compiled fast path (see :mod:`repro.core.instrument`) cheap.

Programs are immutable after assembly (the compiler passes build *new*
``Program`` objects rather than editing one in place), so the decode result
is cached on the program object itself, keyed by the icache line size it
was decoded for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .instructions import Instruction
from .program import Program
from .registers import Reg, RegClass

__all__ = ["DecodedOp", "DecodedProgram"]

#: instruction word size in bytes (``pc * 4`` is the fetch byte address)
INST_BYTES = 4

_DECODE_CACHE_ATTR = "_decoded_programs"


class DecodedOp:
    """Static per-instruction metadata, flattened for the hot loop.

    Pure data — every field mirrors an :class:`Instruction` property but is
    materialized once so the engine reads plain slots instead of calling
    descriptors per commit.
    """

    __slots__ = ("inst", "pc", "srcs", "src_flats", "src_reads", "dests",
                 "reads_flags", "sets_flags", "is_load", "is_store",
                 "is_branch", "is_halt", "ex_latency", "addr", "line", "rd",
                 "has_regs", "regs", "plan", "is_mem", "kill_flats",
                 "last_use_flats", "dead_dest_flats")

    def __init__(self, pc: int, inst: Instruction, line_bytes: int) -> None:
        self.inst = inst
        self.pc = pc
        self.srcs: Tuple[Reg, ...] = inst.srcs
        #: flat indices of ``srcs`` — the one scoreboard key type of every
        #: engine, so the operand-ready scan hashes plain ints, never a Reg
        self.src_flats: Tuple[int, ...] = tuple(r.flat for r in inst.srcs)
        #: ``(reg, is_int_class, index)`` triples so the engine reads the
        #: per-thread register lists directly without per-access enum tests
        self.src_reads: Tuple[Tuple[Reg, bool, int], ...] = tuple(
            (r, r.rclass is RegClass.X, r.index) for r in inst.srcs)
        self.dests: Tuple[Reg, ...] = inst.dests
        self.reads_flags: bool = inst.reads_flags
        self.sets_flags: bool = inst.sets_flags
        self.is_load: bool = inst.is_load
        self.is_store: bool = inst.is_store
        self.is_branch: bool = inst.is_branch
        self.is_halt: bool = inst.is_halt
        self.ex_latency: int = inst.ex_latency
        self.addr: int = pc * INST_BYTES
        #: icache line index of the fetch (the engine's line-crossing check)
        self.line: int = self.addr // line_bytes
        self.rd: Optional[Reg] = inst.rd
        self.has_regs: bool = bool(inst.regs)
        #: mirrored so a DecodedOp duck-types as an Instruction wherever a
        #: register list is read (trace recorders, flush windows)
        self.regs: Tuple[Reg, ...] = inst.regs
        #: the VRMU's operand access plan: ``(reg, flat, is_dest, is_src)``
        #: per operand, so ``VRMU.access`` makes no per-execution membership
        #: test against ``srcs``/``dests`` and hashes no :class:`Reg`
        self.plan: Tuple[Tuple[Reg, int, bool, bool], ...] = inst.plan
        self.is_mem: bool = inst.is_mem
        #: static liveness hints, ``None`` until
        #: :func:`repro.analysis.dataflow.annotate` fills them; tuples of
        #: flat register indices afterwards.  Strictly inert: only the
        #: dead-hint replacement policies ever read them.
        self.kill_flats: Optional[Tuple[int, ...]] = None
        self.last_use_flats: Optional[Tuple[int, ...]] = None
        self.dead_dest_flats: Optional[Tuple[int, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DecodedOp {self.pc}: {self.inst!r}>"


class DecodedProgram:
    """A :class:`Program` plus its packed per-pc :class:`DecodedOp` list.

    Indexing mirrors ``Program`` (``dprog[pc]`` is the decoded op at that
    instruction index).  Obtain instances through :meth:`of`, which caches
    the decode on the program object per icache line size — every core over
    the same program shares one decode.
    """

    __slots__ = ("program", "line_bytes", "ops", "liveness", "compiled")

    def __init__(self, program: Program, line_bytes: int = 64) -> None:
        self.program = program
        self.line_bytes = line_bytes
        self.ops: List[DecodedOp] = [
            DecodedOp(pc, inst, line_bytes)
            for pc, inst in enumerate(program.instructions)]
        #: cached :class:`~repro.analysis.dataflow.LivenessResult`, filled
        #: lazily by :func:`repro.analysis.dataflow.annotate`
        self.liveness = None
        #: threaded-code closure tables keyed by
        #: :class:`~repro.isa.compiled.EngineVariant`; filled lazily by
        #: :func:`repro.isa.compiled.compile_program`.  Living on the
        #: decode (itself keyed by (program, line size)) makes the full
        #: compile key (program, line size, variant) — closures can never
        #: leak across combinations.
        self.compiled = {}

    @classmethod
    def of(cls, program: Program, line_bytes: int = 64) -> "DecodedProgram":
        """Cached decode of ``program`` for a given icache line size."""
        cache = getattr(program, _DECODE_CACHE_ATTR, None)
        if cache is None:
            cache = {}
            setattr(program, _DECODE_CACHE_ATTR, cache)
        dprog = cache.get(line_bytes)
        if dprog is None or len(dprog.ops) != len(program.instructions):
            dprog = cls(program, line_bytes)
            cache[line_bytes] = dprog
        return dprog

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, pc: int) -> DecodedOp:
        return self.ops[pc]
