"""Cache keying and superop structure of the threaded-code compiler.

The compile cache must never hand one context's closures to another: the
full key is (program identity, icache line size, EngineVariant), with the
same staleness guard the decode cache carries.  Chains (superops) must
stop at CFG basic-block leaders, branches, and halts.  Every step is
generated from the stage templates, once per shape, and never reads the
InstrumentBus (a core with anything attached runs the reference body).
"""

import pytest

from repro.analysis.dataflow.cfg import build_cfg
from repro.isa import assemble, compiled
from repro.isa.compiled import (
    MAX_CHAIN,
    CompiledProgram,
    EngineVariant,
    compile_program,
)
from repro.isa.decoded import DecodedProgram

SRC = """
start:
    mov  x1, #0
    mov  x2, #16
    adr  x3, buf
loop:
    ldr  x4, [x3, x1, lsl #3]
    add  x5, x4, #1
    str  x5, [x3, x1, lsl #3]
    add  x1, x1, #1
    cmp  x1, x2
    b.lt loop
    halt
"""


def make_dprog(line_bytes=64):
    prog = assemble(SRC, symbols={"buf": 0x1000})
    return DecodedProgram.of(prog, line_bytes)


def chain_of(step):
    """The successor closure a compiled step chains into (None if it
    ends its superop)."""
    code = step.__code__
    if "CHAIN" not in code.co_freevars:
        return None
    return step.__closure__[code.co_freevars.index("CHAIN")].cell_contents


# ------------------------------------------------------------- cache keying
def test_same_variant_hits_cache():
    dprog = make_dprog()
    v = EngineVariant()
    assert compile_program(dprog, v) is compile_program(dprog, v)


def test_equal_variant_values_share_one_table():
    # the key is the variant's *value*, not its object identity
    dprog = make_dprog()
    a = compile_program(dprog, EngineVariant(reg_hook=True))
    b = compile_program(dprog, EngineVariant(reg_hook=True))
    assert a is b


@pytest.mark.parametrize("other", [
    EngineVariant(reg_hook=True),
    EngineVariant(commit_hook=True),
    EngineVariant(miss_switch=True),
    EngineVariant(reg_hook=True, commit_hook=True),
    EngineVariant(family="barrel"),
    EngineVariant(chained=False),
])
def test_distinct_variants_get_distinct_tables(other):
    dprog = make_dprog()
    base = compile_program(dprog, EngineVariant())
    cp = compile_program(dprog, other)
    assert cp is not base
    assert all(f is not g for f, g in zip(base.code, cp.code))


def test_no_leak_across_line_sizes():
    d64 = make_dprog(64)
    d32 = make_dprog(32)
    assert d64 is not d32
    v = EngineVariant()
    a = compile_program(d64, v)
    b = compile_program(d32, v)
    assert a is not b
    # each decode owns its cache: recompiling one never touches the other
    assert d64.compiled[v] is a
    assert d32.compiled[v] is b


def test_no_leak_across_programs():
    p1 = assemble(SRC, symbols={"buf": 0x1000})
    p2 = assemble(SRC, symbols={"buf": 0x2000})
    v = EngineVariant()
    a = compile_program(DecodedProgram.of(p1), v)
    b = compile_program(DecodedProgram.of(p2), v)
    assert a is not b


def test_staleness_guard_recompiles():
    prog = assemble(SRC, symbols={"buf": 0x1000})
    dprog = DecodedProgram(prog)      # private decode: no shared cache
    v = EngineVariant()
    cp = compile_program(dprog, v)
    assert len(cp.code) == len(dprog.ops)
    dprog.ops.append(dprog.ops[-1])   # simulate an in-place regrow
    fresh = compile_program(dprog, v)
    assert fresh is not cp
    assert len(fresh.code) == len(dprog.ops)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        compile_program(make_dprog(), EngineVariant(family="vliw"))


# --------------------------------------------------------- superop structure
def test_chains_stop_at_block_leaders():
    dprog = make_dprog()
    leaders = {b.start for b in build_cfg(dprog.program).blocks}
    code = compile_program(dprog, EngineVariant()).code
    for pc, step in enumerate(code):
        nxt = chain_of(step)
        d = dprog.ops[pc]
        if d.is_branch or d.is_halt or pc + 1 in leaders \
                or pc + 1 >= len(code):
            assert nxt is None, f"pc {pc} must end its superop"
        else:
            assert nxt is code[pc + 1], f"pc {pc} must chain to {pc + 1}"


def test_chain_depth_bounded():
    src = "start:\n" + "    add x1, x1, #1\n" * (3 * MAX_CHAIN) + "    halt\n"
    dprog = DecodedProgram.of(assemble(src))
    code = compile_program(dprog, EngineVariant()).code
    for start in range(len(code)):
        depth, step = 0, chain_of(code[start])
        while step is not None:
            depth += 1
            step = chain_of(step)
        assert depth <= MAX_CHAIN


def test_unchained_variant_never_chains():
    # chained=False (multi-core nodes): every step ends its superop so
    # the node can interleave cores at per-instruction granularity
    dprog = make_dprog()
    code = compile_program(dprog, EngineVariant(chained=False)).code
    assert all(chain_of(step) is None for step in code)


def test_barrel_table_never_chains():
    dprog = make_dprog()
    code = compile_program(dprog, EngineVariant(family="barrel")).code
    assert all(chain_of(step) is None for step in code)


def test_compiled_program_len():
    dprog = make_dprog()
    cp = compile_program(dprog, EngineVariant())
    assert isinstance(cp, CompiledProgram)
    assert len(cp) == len(dprog.ops)


# ------------------------------------------------------- generated sources
def test_shapes_compile_once_per_process():
    # a second program with the same op shapes adds no factory: the shape
    # key holds no per-pc value (pc, index, latency, immediate, successor)
    v = EngineVariant(reg_hook=True)
    compile_program(make_dprog(), v)
    before = dict(compiled._FACTORIES)
    other = assemble(SRC.replace("#16", "#24"), symbols={"buf": 0x3000})
    compile_program(DecodedProgram.of(other), v)
    assert compiled._FACTORIES == before


def test_generated_step_sources_never_mention_bus():
    """The successor of lint rule VRC010: no generated step, of any shape,
    reads (let alone captures) the InstrumentBus."""
    from repro import workloads

    variants = [EngineVariant(family=f, reg_hook=h, commit_hook=h,
                              miss_switch=m, chained=c)
                for f in compiled.FAMILIES for h in (False, True)
                for m in (False, True) for c in (False, True)]
    programs = [workloads.get(name).build(n_threads=2, n_per_thread=4).program
                for name in workloads.names() if name != "fuzz"]
    for program in programs:
        for variant in variants:
            compile_program(DecodedProgram.of(program), variant)
    families = {shape[0] for shape in compiled._FACTORIES}
    classes = {shape[1] for shape in compiled._FACTORIES}
    assert families == set(compiled.FAMILIES)
    assert classes == {"simple", "cmp", "branch", "ldr", "str", "halt"}
    for shape in compiled._FACTORIES:
        assert "bus" not in compiled._step_source(*shape), shape
