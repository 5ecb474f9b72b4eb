"""Cache keying and superop structure of the threaded-code compiler.

The compile cache must never hand one context's closures to another: the
full key is (program identity, icache line size, EngineVariant), with the
same staleness guard the decode cache carries.  Chains (superops) must
stop at CFG basic-block leaders, branches, and halts; a ``shared`` (node)
core's chains also stop before every ``ldr``/``str`` and icache line
crossing, and never form with hooks or observers.  Every step is
generated from the stage templates, once per shape; an op's value,
address and branch test are source in its shape, so a step closes over no
callable but its successor and the shapes stay bounded.  Only the observed
variant's steps read the core's ``fault_hook`` or ``observers``, and each
of those calls the fault hook once and dispatches ``on_commit`` once.
"""

import re

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
    EngineVariant(shared=True),
    EngineVariant(observed=True),
    EngineVariant(family="barrel", observed=True),
    EngineVariant(reg_hook=True, commit_hook=True, vrmu_inline="hit"),
    EngineVariant(reg_hook=True, commit_hook=True, vrmu_inline="hit+commit"),
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


# ------------------------------------------------ chains inside a node
#
# A node core is ``shared``: its chains may only run over ops that reach
# nothing a peer core can see (tests/system/test_shared_traffic.py holds
# the node's crossbar traffic equal to single-op steps).

def workload_programs():
    from repro import workloads

    return [workloads.get(name).build(n_threads=2, n_per_thread=4).program
            for name in workloads.names() if name != "fuzz"]


@pytest.mark.parametrize("line_bytes", [32, 64])
def test_shared_step_never_chains_into_memory_or_another_line(line_bytes):
    chained = 0
    for program in workload_programs():
        dprog = DecodedProgram.of(program, line_bytes)
        code = compile_program(dprog, EngineVariant(shared=True)).code
        for pc, step in enumerate(code):
            nxt = chain_of(step)
            if nxt is None:
                continue
            chained += 1
            assert nxt is code[pc + 1]
            assert not dprog.ops[pc + 1].is_mem, pc
            assert dprog.ops[pc + 1].line == dprog.ops[pc].line, pc
    assert chained


def test_shared_chains_end_exactly_at_icache_lines():
    src = "start:\n" + "    add x1, x1, #1\n" * 40 + "    halt\n"
    dprog = DecodedProgram.of(assemble(src), 32)
    ops = dprog.ops
    code = compile_program(dprog, EngineVariant(shared=True)).code
    for pc, step in enumerate(code[:-1]):
        same_line = ops[pc + 1].line == ops[pc].line
        assert (chain_of(step) is code[pc + 1]) is same_line, pc


def test_shared_step_may_start_at_a_memory_op():
    # ``str x5`` then ``add x1`` on one line: the store's step chains on
    dprog = make_dprog()
    code = compile_program(dprog, EngineVariant(shared=True)).code
    pc = next(pc for pc, d in enumerate(dprog.ops) if d.is_store)
    assert dprog.ops[pc + 1].line == dprog.ops[pc].line
    assert chain_of(code[pc]) is code[pc + 1]


@pytest.mark.parametrize("hooks", [
    {"reg_hook": True}, {"commit_hook": True}, {"observed": True},
    {"reg_hook": True, "commit_hook": True, "observed": True},
    {"vrmu_inline": "hit+commit"},
])
def test_shared_step_with_hooks_or_observers_never_chains(hooks):
    for program in workload_programs():
        dprog = DecodedProgram.of(program)
        # the same variant unshared does chain
        alone = compile_program(dprog, EngineVariant(**hooks)).code
        assert any(chain_of(step) for step in alone)
        code = compile_program(dprog,
                               EngineVariant(shared=True, **hooks)).code
        assert all(chain_of(step) is None for step in code)


def test_vecadd_node_table_has_a_multi_op_chain():
    from repro import workloads

    program = workloads.get("vecadd").build(n_threads=2,
                                            n_per_thread=4).program
    code = compile_program(DecodedProgram.of(program),
                           EngineVariant(shared=True)).code
    # a step that chains processes two ops or more
    assert any(chain_of(step) is not None for step in code)


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


def compile_every_workload():
    """Compile every workload's program under every variant; a timeline
    core with the register hooks also with each generated ViReC register
    stage."""
    variants = [EngineVariant(family=f, reg_hook=h, commit_hook=h,
                              miss_switch=m, shared=s, observed=o,
                              vrmu_inline=i)
                for f in compiled.FAMILIES for h in (False, True)
                for m in (False, True) for s in (False, True)
                for o in (False, True)
                for i in (("", "hit", "hit+commit")
                          if f == "timeline" and h else ("",))]
    for program in workload_programs():
        for variant in variants:
            compile_program(DecodedProgram.of(program), variant)


def every_shape(observed: bool):
    """Compile every workload under every variant; the shapes (family, op
    class, switches, forms) of the process-wide factory table with or
    without the observed switch."""
    compile_every_workload()
    shapes = [shape for shape in compiled._FACTORIES
              if ("observed" in shape[2]) is observed]
    assert {shape[0] for shape in shapes} == set(compiled.FAMILIES)
    assert {shape[1] for shape in shapes} == {
        "simple", "cmp", "branch", "ldr", "str", "halt"}
    return shapes


def test_generated_step_sources_never_mention_bus():
    """The successor of lint rule VRC010: no generated step of a bare
    shape reads (let alone captures) an instrument attribute of the
    core."""
    for shape in every_shape(observed=False):
        source = compiled._step_source(*shape)
        for name in ("bus", "observer", "fault_hook"):
            assert name not in source, (name, shape)


def test_observed_step_sources_name_each_instrument_once():
    """Every observed shape calls the fault hook at one point and says
    "committed" at one point."""
    for shape in every_shape(observed=True):
        source = compiled._step_source(*shape)
        assert source.count("fault_hook") == 1, shape
        assert source.count("observer.on_commit(") == 1, shape


#: shapes of every workload under every variant, as counted when this
#: bound was recorded; a per-pc value in a shape key would multiply it.
#: The generated ViReC register stage adds 208 (its operand pattern is
#: part of the shape: eight patterns over the workloads)
MAX_WORKLOAD_SHAPES = 439


def test_steps_close_over_no_callable_but_their_successor(monkeypatch):
    """An op's value, address, writeback and branch test are source in
    its step, not a per-pc closure: the only callable constant a factory
    is handed is the chained successor."""
    handed = []
    factory = compiled._step_factory

    def spy(family, cls, sw, forms, consts):
        handed.append(consts)
        return factory(family, cls, sw, forms, consts)

    monkeypatch.setattr(compiled, "_step_factory", spy)
    compile_every_workload()
    assert handed
    for consts in handed:
        assert [name for name, value in consts.items()
                if callable(value)] in ([], ["CHAIN"]), consts


def test_shapes_stay_bounded_by_opcode_and_operand_form(monkeypatch):
    monkeypatch.setattr(compiled, "_FACTORIES", {})
    compile_every_workload()
    assert len(compiled._FACTORIES) <= MAX_WORKLOAD_SHAPES
    for shape in compiled._FACTORIES:
        for name, form in shape[3]:
            # registers and immediates are constants, never literals
            assert set(re.findall(r"\d+", form)) <= {"0", "63", "64"}, (
                name, form)
