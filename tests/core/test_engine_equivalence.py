"""Compiled vs interpreted engine: byte-identical by construction.

The threaded-code engine (:mod:`repro.isa.compiled`) is a host-side
execution strategy, never a model change — so for every timeline core
type, every opt-in instrument (the fault hook and each observer, alone
and all together), and a corpus of fixed-seed fuzz programs, a compiled
run and an interpreted run of the same RunConfig must produce
**byte-identical stats digests** (every counter, every cycle, every
architectural result).  This suite is the contract
behind excluding ``engine`` from config/manifest digests
(:data:`repro.system.manifest._DIGEST_EXCLUDED_FIELDS`) and behind the
fuzz oracle's engine-divergence arm.
"""

import hashlib
import json

import pytest

from repro.fuzz.generator import sample_spec
from repro.system import RunConfig, run_config

from ..helpers import time_limit

#: every timeline core type (ooo is excluded by construction: it has no
#: timeline step to compile, and run_config rejects engine="compiled")
TIMELINE_CORE_TYPES = ("inorder", "banked", "swctx", "virec", "nsf",
                      "prefetch-full", "prefetch-exact", "fgmt")

#: one RunConfig field-set per instrument, plus all-attached.  Telemetry
#: with pipeline_trace covers the tracer observer; faults uses the silent
#: scheme so the campaign is identical work on both engines.
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
    (type and message) must fire on both engines."""
    try:
        return stats_digest(run_config(cfg))
    except Exception as exc:
        return f"error:{type(exc).__name__}:{exc}"


def digests_of(cfg: RunConfig):
    return (one_digest(cfg.with_(engine="compiled")),
            one_digest(cfg.with_(engine="interpreted")))


@pytest.mark.parametrize("core_type", TIMELINE_CORE_TYPES)
def test_core_types_byte_identical(core_type):
    nt = 1 if core_type == "inorder" else 4
    cfg = RunConfig(workload="gather", core_type=core_type,
                    n_threads=nt, n_per_thread=24)
    with time_limit(120):
        compiled, interpreted = digests_of(cfg)
    assert compiled == interpreted


@pytest.mark.parametrize("slot", sorted(SLOT_CONFIGS))
@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_bus_slots_byte_identical(core_type, slot):
    cfg = RunConfig(workload="gather", core_type=core_type,
                    n_threads=4, n_per_thread=16, **SLOT_CONFIGS[slot])
    with time_limit(120):
        compiled, interpreted = digests_of(cfg)
    assert compiled == interpreted


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
        compiled, interpreted = digests_of(cfg)
    assert compiled == interpreted


@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_multicore_byte_identical(core_type):
    """n_cores > 1: the node interleaves cores per step, so the simulator
    disables superop chaining and the compiled engine must reproduce the
    interpreted crossbar/DRAM contention order exactly."""
    cfg = RunConfig(workload="spmv", core_type=core_type,
                    n_threads=4, n_per_thread=8, n_cores=2)
    with time_limit(120):
        compiled, interpreted = digests_of(cfg)
    assert compiled == interpreted


def test_multicore_disables_chaining_single_core_keeps_it():
    """The chaining decision is observable on the compile key."""
    from repro.isa.compiled import EngineVariant
    from repro.core.cgmt import BankedCore

    from ..helpers import build_gather_core

    core, _, _, _ = build_gather_core(BankedCore, n_threads=2, n=16,
                                      engine="compiled")
    assert core._engine_variant() == EngineVariant(
        family="timeline", miss_switch=True, chained=True)
    core.set_step_chaining(False)
    assert not core._engine_variant().chained
    core.set_step_chaining(True)
    core.run()


def test_workload_coverage_byte_identical():
    """A second workload (stride) so equivalence isn't gather-specific."""
    for core_type in ("banked", "virec"):
        cfg = RunConfig(workload="stride", core_type=core_type,
                        n_threads=4, n_per_thread=16)
        compiled, interpreted = digests_of(cfg)
        assert compiled == interpreted


def test_mid_run_engine_switch_converges():
    """set_engine() mid-run converts scoreboard keys and finishes with
    the same architectural totals as a single-engine run."""
    from repro.core.cgmt import BankedCore

    from ..helpers import build_gather_core

    ref, _, _, _ = build_gather_core(BankedCore, n_threads=4, n=32,
                                     engine="compiled")
    ref.run()

    core, _, _, _ = build_gather_core(BankedCore, n_threads=4, n=32,
                                      engine="compiled")
    for _ in range(40):
        core.step()
    core.set_engine("interpreted")
    for _ in range(40):
        core.step()
    core.set_engine("compiled")
    core.run()
    assert core.now == ref.now
    assert (sum(th.instructions for th in core.threads)
            == sum(th.instructions for th in ref.threads))


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


@pytest.mark.parametrize("core_type", ["banked", "virec", "fgmt"])
def test_every_lowering_shape_byte_identical(core_type):
    from repro.isa import assemble
    from repro.isa.instructions import Opcode

    cfg = RunConfig(workload="fuzz", core_type=core_type,
                    n_threads=4, n_per_thread=16,
                    workload_kwargs={"gen": ALL_SHAPES_SPEC,
                                     "asm": ALL_SHAPES_SRC})
    symbols = dict.fromkeys(
        ("chunk", "mask", "data", "aux", "out", "scratch"), 0)
    program = assemble(ALL_SHAPES_SRC, symbols=symbols)
    assert {i.opcode for i in program.instructions} == set(Opcode)
    with time_limit(120):
        fast = run_config(cfg.with_(engine="compiled"))
        assert fast.correct
        assert stats_digest(fast) == one_digest(cfg.with_(engine="interpreted"))


@pytest.mark.parametrize("family", ["timeline", "barrel"])
def test_declined_op_runs_on_the_reference_body(family):
    """An operand shape the lowering declines — here an integer ``add``
    over D registers, which no assembler emits — makes that one pc a call
    into the core's reference body: byte-identical under both engines,
    and the end of its superop."""
    import dataclasses

    from repro.core.cgmt import BankedCore, make_threads
    from repro.core.fgmt import FGMTCore
    from repro.isa import D, X, assemble, compiled
    from repro.isa.instructions import Opcode
    from repro.memory import Cache, CacheConfig, MainMemory
    from repro.stats.counters import Stats

    from ..helpers import FixedLatencyBackend

    program = assemble("""
    start:
        fmov d0, #2.5
        fmov d1, #4.0
        fadd d2, d0, d1
        fadd d3, d2, d0
        adr  x5, out
        str  d3, [x5, x0, lsl #3]
        halt
    """, symbols={"out": 0x300000})
    declined = 2
    program.instructions[declined] = dataclasses.replace(
        program.instructions[declined], opcode=Opcode.ADD,
        text="add d2, d0, d1")

    def run(engine):
        backend = FixedLatencyBackend(80)
        ic = Cache(CacheConfig(name="ic", size_bytes=32 * 1024, assoc=4,
                               latency=2), backend, Stats("ic"))
        dc = Cache(CacheConfig(name="dc", size_bytes=8 * 1024, assoc=4,
                               latency=2, mshrs=24), backend, Stats("dc"))
        mem = MainMemory()
        threads = make_threads(2, init_regs=[{X(0): t} for t in range(2)])
        cls = BankedCore if family == "timeline" else FGMTCore
        core = cls(program, ic, dc, mem, threads, engine=engine)
        core.run()
        return core, mem

    fast, fast_mem = run("compiled")
    oracle, oracle_mem = run("interpreted")
    code = fast._ccode
    assert code[declined] is compiled._reference_fallback
    assert all(step is not compiled._reference_fallback
               for pc, step in enumerate(code) if pc != declined)
    assert fast.commit_tail == oracle.commit_tail
    assert fast.stats.as_dict() == oracle.stats.as_dict()
    for a, b in zip(fast.threads, oracle.threads):
        assert (a.xregs, a.dregs, a.instructions) == \
            (b.xregs, b.dregs, b.instructions)
        assert a.dregs[D(2).index] == 6.0       # int(2.5) + int(4.0)
    assert [fast_mem.load(0x300000 + 8 * t) for t in range(2)] == \
        [oracle_mem.load(0x300000 + 8 * t) for t in range(2)] == [8.5, 8.5]
