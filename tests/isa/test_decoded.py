"""The static pre-decode pass (DecodedProgram / DecodedOp).

Every DecodedOp field must mirror the corresponding Instruction property
exactly — the engine trusts the packed metadata instead of re-deriving it
per commit — and the decode must be cached per (program, line size) so all
cores over one program share a single pass.
"""

from repro.isa import assemble
from repro.isa.decoded import INST_BYTES, DecodedOp, DecodedProgram
from repro.isa.registers import RegClass

SRC = """
start:
    mov  x2, #7
    mul  x3, x0, x2
    adr  x5, idx
    fadd d1, d2, d3
loop:
    ldr  x8, [x5, x3, lsl #3]
    str  x8, [x5, x3, lsl #3]
    add  x3, x3, #1
    cmp  x3, x2
    b.lt loop
    halt
"""


def program():
    return assemble(SRC, symbols={"idx": 0x1000})


def test_metadata_mirrors_instruction_properties():
    prog = program()
    dprog = DecodedProgram.of(prog, 64)
    assert len(dprog) == len(prog.instructions)
    for pc, inst in enumerate(prog.instructions):
        d = dprog[pc]
        assert isinstance(d, DecodedOp)
        assert d.inst is inst and d.pc == pc
        assert d.srcs == inst.srcs and d.dests == inst.dests
        assert d.reads_flags == inst.reads_flags
        assert d.sets_flags == inst.sets_flags
        assert d.is_load == inst.is_load
        assert d.is_store == inst.is_store
        assert d.is_branch == inst.is_branch
        assert d.is_halt == inst.is_halt
        assert d.ex_latency == inst.ex_latency
        assert d.rd is inst.rd
        assert d.has_regs == bool(inst.regs)
        assert d.addr == pc * INST_BYTES
        assert d.line == d.addr // 64


def test_src_reads_triples_index_the_right_register_file():
    dprog = DecodedProgram.of(program(), 64)
    for d in dprog.ops:
        assert len(d.src_reads) == len(d.srcs)
        for (reg, is_x, idx), src in zip(d.src_reads, d.srcs):
            assert reg is src
            assert is_x == (src.rclass is RegClass.X)
            assert idx == src.index


def test_classification_spot_checks():
    dprog = DecodedProgram.of(program(), 64)
    kinds = [(d.is_load, d.is_store, d.is_branch, d.is_halt)
             for d in dprog.ops]
    assert kinds[4] == (True, False, False, False)    # ldr
    assert kinds[5] == (False, True, False, False)    # str
    assert kinds[8] == (False, False, True, False)    # b.lt
    assert kinds[9] == (False, False, False, True)    # halt
    assert dprog[8].reads_flags and dprog[7].sets_flags


def test_decode_is_cached_per_program_and_line_size():
    prog = program()
    a = DecodedProgram.of(prog, 64)
    assert DecodedProgram.of(prog, 64) is a          # cache hit
    b = DecodedProgram.of(prog, 32)
    assert b is not a and b.line_bytes == 32         # distinct per line size
    assert DecodedProgram.of(program(), 64) is not a  # distinct per program


def test_line_indices_respect_line_size():
    prog = program()
    d64 = DecodedProgram.of(prog, 64)
    d16 = DecodedProgram.of(prog, 16)
    # 16 instructions per 64B line vs 4 per 16B line
    assert d64[15 if len(d64) > 15 else len(d64) - 1].line == \
        (min(15, len(d64) - 1) * INST_BYTES) // 64
    assert [d.line for d in d16.ops] == \
        [(pc * INST_BYTES) // 16 for pc in range(len(d16))]


def test_cores_over_one_program_share_the_decode():
    from repro.core.cgmt import BankedCore
    from tests.helpers import build_gather_core
    core_a, _, _, _ = build_gather_core(BankedCore, n_threads=2, n=8)
    core_b = BankedCore(core_a.program, core_a.icache, core_a.dcache,
                        core_a.memory, core_a.threads,
                        layout=core_a.layout)
    assert core_b.dprog is core_a.dprog


def test_annotation_survives_decode_cache():
    """Liveness hints written by annotate() persist on the cached decode:
    a second core asking for the same (program, line size) sees them."""
    from repro.analysis.dataflow import annotate

    prog = program()
    d1 = DecodedProgram.of(prog, 64)
    annotate(d1)
    assert d1.liveness is not None
    d2 = DecodedProgram.of(prog, 64)
    assert d2 is d1
    assert d2.liveness is d1.liveness
    for op in d2.ops:
        assert op.kill_flats is not None


def test_annotation_does_not_leak_between_line_sizes():
    """Each icache-line-size decode variant carries its own hint state —
    annotating the 64B decode must not make the 32B one claim hints."""
    from repro.analysis.dataflow import annotate

    prog = program()
    d64 = DecodedProgram.of(prog, 64)
    d32 = DecodedProgram.of(prog, 32)
    assert d64 is not d32
    annotate(d64)
    assert d32.liveness is None
    assert all(op.kill_flats is None for op in d32.ops)
    # annotating the other variant reuses the computation independently
    annotate(d32)
    assert d32.liveness is not None
    for a, b in zip(d64.ops, d32.ops):
        assert a.kill_flats == b.kill_flats
        assert a.last_use_flats == b.last_use_flats
        assert a.dead_dest_flats == b.dead_dest_flats


def test_decoded_op_duck_types_instruction_for_vrmu():
    """The VRMU reads .regs / .srcs / .dests / .is_mem off whatever the
    hooks hand it; DecodedOp must mirror the Instruction exactly."""
    prog = program()
    dprog = DecodedProgram.of(prog, 64)
    for pc, inst in enumerate(prog.instructions):
        d = dprog[pc]
        assert d.regs == inst.regs
        assert d.srcs == inst.srcs
        assert d.dests == inst.dests
        assert d.is_mem == inst.is_mem


def test_operand_plan_packs_the_vrmu_membership_tests():
    """One (reg, flat, is_dest, is_src) entry per operand in ``regs`` order:
    exactly what the VRMU used to derive from set(dests)/set(srcs)."""
    prog = program()
    dprog = DecodedProgram.of(prog, 64)
    for pc, inst in enumerate(prog.instructions):
        plan = dprog[pc].plan
        assert plan == inst.plan
        assert [entry[0] for entry in plan] == list(inst.regs)
        for reg, flat, is_dest, is_src in plan:
            assert flat == reg.flat
            assert is_dest == (reg in inst.dests)
            assert is_src == (reg in inst.srcs)
            assert is_dest or is_src
    # ldr x8, [x5, x3, lsl #3]: two sources, one destination-only register
    ldr = dprog[4].plan
    assert [(r.name, d, s) for r, _f, d, s in ldr] == [
        ("x5", False, True), ("x3", False, True), ("x8", True, False)]
    assert dprog[9].plan == ()  # halt names no register


def test_fresh_decode_has_unclaimed_hints():
    import dataclasses
    prog = program()
    # a distinct Program object gets a distinct, unannotated decode
    clone = dataclasses.replace(prog) if dataclasses.is_dataclass(prog) \
        else None
    d = DecodedProgram.of(clone if clone is not None else program(), 64)
    assert d.liveness is None
    assert all(op.kill_flats is None for op in d.ops)
