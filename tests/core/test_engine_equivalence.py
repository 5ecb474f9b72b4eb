"""The generated step table against the interpreted oracle: byte-identical.

The step table (:mod:`repro.isa.compiled`) is the simulator's only step
engine; the interpreted bodies it was generated to match are kept as the
oracle in ``tests/core/reference_step.py``.  For every timeline core
type, every opt-in instrument (the fault hook and each observer, alone
and all together — the observed variant of the table), a corpus of
fixed-seed fuzz programs, the fuzz oracle's own arm configs and every
lowering shape, a run on the table and a run on the oracle of the same
RunConfig must produce **byte-identical stats digests** (every counter,
every cycle, every architectural result).  Each comparison also checks
that each side ran the body it claims, so no case compares the oracle
with itself.
"""

import hashlib
import json

import pytest

from repro.core.base import TimelineCore
from repro.fuzz.generator import sample_spec
from repro.fuzz.oracle import DEFAULT_ARMS, REFERENCE_ARM, oracle_config
from repro.subsystems import requested
from repro.system import RunConfig, run_config

from ..helpers import time_limit
from .reference_step import bind_steps, reference_step_of

#: every timeline core type (ooo is excluded by construction: it has no
#: timeline step)
TIMELINE_CORE_TYPES = ("inorder", "banked", "swctx", "virec", "nsf",
                      "prefetch-full", "prefetch-exact", "fgmt")

#: one RunConfig field-set per instrument, plus all-attached.  Telemetry
#: with pipeline_trace covers the tracer observer; faults uses the silent
#: scheme so the campaign is identical work on both sides.
SLOT_CONFIGS = {
    "none": {},
    "faults": {"faults": {"rf_rate": 2e-4, "scheme": "none", "seed": 3}},
    "telemetry": {"telemetry": {"events": True, "interval": 50}},
    "tracer": {"telemetry": {"pipeline_trace": True}},
    "metrics": {"metrics": True},
    "profile": {"profile": True},
    "sanitizer": {"sanitize": True},
    "all": {"faults": {"rf_rate": 2e-4, "scheme": "none", "seed": 3},
            "telemetry": {"events": True, "interval": 50,
                          "pipeline_trace": True},
            "metrics": True, "profile": True, "sanitize": True},
}


def stats_digest(result) -> str:
    """Canonical digest of everything a run observed."""
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 9),
        "rf_hit_rate": result.rf_hit_rate,
        "correct": result.correct,
        "stats": sorted((k, v) for k, v in result.stats.flat()),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def one_digest(cfg: RunConfig) -> str:
    """Digest of the run — or of its failure: a fault campaign may
    corrupt an address register into a crash, and then *the same crash*
    (type and message) must fire on both sides."""
    try:
        return stats_digest(run_config(cfg))
    except Exception as exc:
        return f"error:{type(exc).__name__}:{exc}"


def digests_of(cfg: RunConfig):
    """``(table, oracle)`` digests of one config.  The table side must
    have run the generated steps — the observed variant exactly when the
    config attaches an instrument — and the oracle side the interpreted
    body of its pipeline family."""
    with bind_steps(reference=False) as cores:
        table = one_digest(cfg)
    observed = bool(requested(cfg))
    assert cores
    for core in cores:
        assert (core._process_instruction.__func__
                is TimelineCore._process_instruction_compiled)
        variant = core._engine_variant()
        assert variant.observed is observed
        assert core._ccode is core.dprog.compiled[variant].code
    with bind_steps(reference=True) as cores:
        oracle = one_digest(cfg)
    assert cores
    for core in cores:
        assert core._process_instruction.__func__ is reference_step_of(core)
    return table, oracle


@pytest.mark.parametrize("core_type", TIMELINE_CORE_TYPES)
def test_core_types_byte_identical(core_type):
    nt = 1 if core_type == "inorder" else 4
    cfg = RunConfig(workload="gather", core_type=core_type,
                    n_threads=nt, n_per_thread=24)
    with time_limit(120):
        table, oracle = digests_of(cfg)
    assert table == oracle


@pytest.mark.parametrize("slot", sorted(SLOT_CONFIGS))
@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_bus_slots_byte_identical(core_type, slot):
    cfg = RunConfig(workload="gather", core_type=core_type,
                    n_threads=4, n_per_thread=16, **SLOT_CONFIGS[slot])
    with time_limit(120):
        table, oracle = digests_of(cfg)
    assert table == oracle


@pytest.mark.parametrize("index", range(50))
def test_fuzz_programs_byte_identical(index):
    """50 fixed-seed generated programs, core type rotated for breadth."""
    core_type = ("banked", "virec", "fgmt", "swctx")[index % 4]
    spec = sample_spec(1234, index).as_dict()
    cfg = RunConfig(workload="fuzz", core_type=core_type,
                    n_threads=4, n_per_thread=16,
                    seed=int(spec["seed"]) & 0x7FFFFFFF,
                    workload_kwargs={"gen": spec},
                    max_cycles=400_000)
    with time_limit(120):
        table, oracle = digests_of(cfg)
    assert table == oracle


@pytest.mark.parametrize("core_type", ["banked", "swctx", "prefetch-full",
                                       "prefetch-exact", "virec", "fgmt"])
def test_multicore_byte_identical(core_type):
    """n_cores > 1: the node interleaves cores per step and marks them
    ``shared``, so their tables chain only ops no peer can observe and
    must reproduce the single-op oracle's crossbar/DRAM contention order
    exactly."""
    cfg = RunConfig(workload="spmv", core_type=core_type,
                    n_threads=4, n_per_thread=8, n_cores=2)
    with time_limit(120):
        table, oracle = digests_of(cfg)
    assert table == oracle


def test_node_marks_its_cores_shared_a_single_core_is_not():
    """Sharing the crossbar is observable on the compile key, and the
    node sets it, not the core factory."""
    from repro.isa.compiled import EngineVariant

    for n_cores in (1, 2):
        with bind_steps(reference=False) as cores:
            run_config(RunConfig(workload="gather", core_type="banked",
                                 n_threads=2, n_per_thread=8,
                                 n_cores=n_cores))
        assert [core._engine_variant() for core in cores] == [EngineVariant(
            family="timeline", miss_switch=True,
            shared=n_cores > 1)] * n_cores


def test_workload_coverage_byte_identical():
    """A second workload (stride) so equivalence isn't gather-specific."""
    for core_type in ("banked", "virec"):
        cfg = RunConfig(workload="stride", core_type=core_type,
                        n_threads=4, n_per_thread=16)
        table, oracle = digests_of(cfg)
        assert table == oracle


#: the fuzz programs every ``repro fuzz`` arm runs, with and without a
#: silent-flip campaign (at this rate VSan stops 25 of the 40 flipped
#: runs and the other 15 complete)
FUZZ_FAULTS = {"plain": None,
               "flips": {"rf_rate": 5e-6, "scheme": "none", "seed": 9}}


@pytest.mark.parametrize("index", range(10))
def test_fuzz_arms_byte_identical(index):
    """What the fuzz oracle's engine cross-check claimed to make: every
    arm config (VSan on, per-commit checks) of 10 fixed-seed generated
    programs, with and without injected flips, on the table and on the
    oracle."""
    spec = sample_spec(4321, index).as_dict()
    for core_type, policy in (REFERENCE_ARM,) + DEFAULT_ARMS:
        for faults in FUZZ_FAULTS.values():
            cfg = oracle_config(spec, core_type, policy, n_threads=4,
                                n_per_thread=16, max_cycles=400_000,
                                faults=faults, sanitize=True)
            with time_limit(120):
                table, oracle = digests_of(cfg)
            assert table == oracle, (core_type, policy, faults)


# ------------------------------------------------- every lowering shape
#
# The fuzz generator never emits ``b``, ``nop``, a load into a D register,
# or ``[xn, #imm]`` / ``[xn], #imm`` addressing, so this kernel does: all
# 26 opcodes, the three addressing modes with X and D data registers (loads
# and stores), post-index with rd == rn, ``cmp``/``mov``/``fmov`` in
# register and immediate forms, and every branch form both taken and not
# taken.  It runs as the ``asm`` override of a fuzz spec, whose register
# layout (x0-x6, x8-x15, x23-x27, d0-d3, d8) and data arrays it keeps to;
# every store goes to a thread-private word, so the functional check is
# exact, not vacuous.
ALL_SHAPES_SPEC = {"seed": 7, "archetype": "gather", "working_set": 8,
                   "fp_working_set": 4, "n_body_ops": 4}
ALL_SHAPES_SRC = """
start:
    mov  x2, #chunk
    mul  x3, x0, x2            ; i = tid * chunk
    add  x4, x3, x2            ; end
    adr  x5, data
    adr  x6, aux
    adr  x23, out
    adr  x24, scratch
    mov  x25, #mask
    mov  x8, #0
    mov  x9, x0                ; mov, register form
    fmov d0, #1.5
    fmov d1, d0                ; fmov, register form
    nop
    b    loop
    add  x8, x8, #999          ; skipped by the unconditional branch
loop:
    and  x26, x3, x25
    lsl  x10, x26, #3
    add  x10, x5, x10          ; &data[i & mask]
    ldr  x11, [x10, #8]        ; base + immediate -> X
    ldr  d2, [x10, #0]         ; base + immediate -> D
    ldr  x12, [x5, x26, lsl #3]    ; base + index -> X
    ldr  d3, [x6, x26, lsl #3]     ; base + index -> D
    mov  x27, x10
    ldr  x13, [x27], #8        ; post-index -> X
    ldr  d8, [x27], #8         ; post-index -> D
    mov  x14, x10
    ldr  x14, [x14], #8        ; post-index with rd == rn: the load wins
    add  x8, x8, x11
    sub  x8, x8, x12
    and  x15, x13, x25
    orr  x15, x15, #1
    eor  x8, x8, x14
    lsl  x15, x15, #2
    lsr  x11, x11, x9          ; shift by a register (the thread id)
    asr  x12, x12, #3
    mul  x13, x13, #3
    madd x8, x15, x9, x8
    sub  x8, x8, #7
    fadd d2, d2, d0
    fsub d3, d3, d1
    fmul d8, d8, d0
    fmadd d2, d2, d1, d3
    cbz  x26, even             ; taken when (i & mask) == 0
    cbnz x9, odd               ; taken on every thread but 0
    add  x8, x8, #1
odd:
    cmp  x3, x9                ; cmp, register form
    b.eq even
    b.ne next
even:
    add  x8, x8, #2
next:
    cmp  x15, #64              ; cmp, immediate form
    b.gt big
    b.le small
big:
    eor  x8, x8, x15
small:
    cmp  x26, x9
    b.ge stores
    add  x8, x8, #3
stores:
    lsl  x27, x3, #6           ; eight private words per element
    add  x27, x24, x27
    str  x8, [x27, #0]         ; base + immediate, X
    str  d2, [x27, #8]         ; base + immediate, D
    lsl  x10, x3, #3
    add  x10, x10, #2
    str  x11, [x24, x10, lsl #3]   ; base + index, X
    add  x10, x10, #1
    str  d8, [x24, x10, lsl #3]    ; base + index, D
    add  x27, x27, #32
    str  x12, [x27], #8        ; post-index, X
    str  d3, [x27], #8         ; post-index, D
    str  x27, [x27], #8        ; post-index storing its own base
    add  x3, x3, #1
    cmp  x3, x4
    b.lt loop
    str  x8, [x23, x0, lsl #3]
    halt
"""


def shapes_config(core_type: str) -> RunConfig:
    from repro.isa import assemble
    from repro.isa.instructions import Opcode

    symbols = dict.fromkeys(
        ("chunk", "mask", "data", "aux", "out", "scratch"), 0)
    program = assemble(ALL_SHAPES_SRC, symbols=symbols)
    assert {i.opcode for i in program.instructions} == set(Opcode)
    return RunConfig(workload="fuzz", core_type=core_type,
                     n_threads=4, n_per_thread=16,
                     workload_kwargs={"gen": ALL_SHAPES_SPEC,
                                      "asm": ALL_SHAPES_SRC})


@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_every_lowering_shape_byte_identical(core_type):
    with time_limit(120):
        table, oracle = digests_of(shapes_config(core_type))
    assert not table.startswith("error:"), table   # the run checked out
    assert table == oracle


@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_every_observed_lowering_shape_byte_identical(core_type):
    """The same kernel on the observed variant, every sink attached."""
    cfg = shapes_config(core_type).with_(**SLOT_CONFIGS["all"])
    with time_limit(120):
        table, oracle = digests_of(cfg)
    assert table == oracle


@pytest.mark.parametrize("family", ["timeline", "barrel"])
def test_declined_operands_are_a_lowering_error(family):
    """An operand shape the lowering cannot express — here an integer
    ``add`` over D registers, which the assembler rejects, built as an
    ``Instruction`` directly — fails when the core compiles its table,
    naming the pc and the instruction."""
    from repro.core.cgmt import BankedCore, make_threads
    from repro.core.fgmt import FGMTCore
    from repro.errors import LoweringError
    from repro.isa import D, Instruction, X, assemble
    from repro.isa.instructions import Opcode
    from repro.memory import Cache, CacheConfig, MainMemory
    from repro.stats.counters import Stats

    from ..helpers import FixedLatencyBackend

    program = assemble("""
    start:
        fmov d0, #2.5
        fmov d1, #4.0
        fadd d2, d0, d1
        halt
    """)
    program.instructions[2] = Instruction(Opcode.ADD, rd=D(2), rn=D(0),
                                          rm=D(1), text="add d2, d0, d1")
    backend = FixedLatencyBackend(80)
    ic = Cache(CacheConfig(name="ic", size_bytes=32 * 1024, assoc=4,
                           latency=2), backend, Stats("ic"))
    dc = Cache(CacheConfig(name="dc", size_bytes=8 * 1024, assoc=4,
                           latency=2, mshrs=24), backend, Stats("dc"))
    threads = make_threads(2, init_regs=[{X(0): t} for t in range(2)])
    cls = BankedCore if family == "timeline" else FGMTCore
    with pytest.raises(LoweringError,
                       match=rf"^pc 2: the {family} step cannot be "
                             r"generated for 'add d2, d0, d1'$"):
        cls(program, ic, dc, MainMemory(), threads)
