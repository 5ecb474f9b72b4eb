"""Backward liveness: per-op facts, annotation caching, and dynamic
soundness of the dead/last-use hints against the functional simulator.

The soundness property (acceptance-critical): if the static analysis
marks a register dead at an op (``kill_flats``), then on *any* dynamic
execution trace that register is never read again before being
redefined.  Violations would let the dead-hint replacement policies
corrupt architectural state, so this is checked on every builtin kernel
and on 100+ fixed-seed fuzz programs.
"""

import pytest

from repro import workloads
from repro.analysis.dataflow import (
    FLAGS_FLAT,
    annotate,
    compute_liveness,
)
from repro.isa import assemble
from repro.isa.decoded import DecodedProgram
from repro.isa.func_sim import FunctionalSimulator

SRC = """
start:
    mov  x2, #4
    mov  x3, #0
    mov  x4, #9
loop:
    add  x3, x3, x4
    cmp  x3, x2
    b.lt loop
    add  x5, x3, #1
    halt
"""


def test_per_op_facts():
    prog = assemble(SRC)
    res = compute_liveness(prog)
    # pc 0: defines x2, live through the loop (cmp at pc 4 reads it)
    ol0 = res.at(0)
    assert ol0.defs == frozenset({2})
    assert 2 in ol0.live_after and not ol0.kill
    # pc 4 (cmp): defines flags, read by b.lt -> flags live after
    ol4 = res.at(4)
    assert FLAGS_FLAT in ol4.defs and FLAGS_FLAT in ol4.live_after
    # pc 6 (add x5, x3, #1): x3's final read, x5 never read -> both dead
    ol6 = res.at(6)
    assert ol6.last_use == frozenset({3})
    assert ol6.dead_dests == frozenset({5})
    assert ol6.kill == frozenset({3, 5})
    # pc 7 (halt): nothing live after the program stops
    assert res.at(7).live_after == frozenset()


def test_loop_carried_values_stay_live():
    prog = assemble(SRC)
    res = compute_liveness(prog)
    loop_block = res.cfg.block_at[3]
    # x2 (bound), x3 (acc), x4 (step) are live around the loop
    assert {2, 3, 4} <= res.block_live_in[loop_block]


def test_unreachable_ops_have_none_facts_empty_hints():
    prog = assemble("start:\n    b join\n    mov x3, #1\njoin:\n    halt\n")
    res = compute_liveness(prog)
    assert res.at(1) is None
    dprog = DecodedProgram.of(prog, 64)
    annotate(dprog)
    assert dprog[1].kill_flats == ()
    assert dprog[1].last_use_flats == ()
    assert dprog[1].dead_dest_flats == ()


def test_annotate_caches_and_is_idempotent():
    prog = assemble(SRC)
    dprog = DecodedProgram.of(prog, 64)
    res1 = annotate(dprog)
    res2 = annotate(dprog)
    assert res1 is res2 and dprog.liveness is res1
    assert dprog[6].kill_flats == (3, 5)
    assert dprog[6].last_use_flats == (3,)
    assert dprog[6].dead_dest_flats == (5,)


def test_hints_exclude_flags_pseudo_register():
    prog = assemble(SRC)
    dprog = DecodedProgram.of(prog, 64)
    annotate(dprog)
    for op in dprog.ops:
        for flats in (op.kill_flats, op.last_use_flats, op.dead_dest_flats):
            assert all(f < FLAGS_FLAT for f in flats)


def test_max_pressure_positive_on_loop_block():
    prog = assemble(SRC)
    res = compute_liveness(prog)
    loop_block = res.cfg.block_at[3]
    assert res.max_pressure(loop_block) >= 3


# -- dynamic soundness oracle ------------------------------------------------

def _assert_hints_sound(program, init_regs, max_instructions=200_000):
    """Step the functional simulator; a flat marked dead at a committed op
    must never be read again before a redefinition."""
    dprog = DecodedProgram.of(program, 64)
    annotate(dprog)
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    for reg, value in init_regs.items():
        sim.state.write(reg, value)
    dead = set()
    while not sim.halted:
        pc = sim.state.pc
        inst = program[pc]
        read = {r.flat for r in inst.srcs} & dead
        assert not read, (f"{program.name}: pc {pc} reads "
                          f"statically-dead register flat(s) {sorted(read)}")
        dead -= {r.flat for r in inst.dests}
        alive = sim.step()
        dead |= set(dprog[pc].kill_flats)
        if not alive:
            break
        assert sim.instructions_executed <= max_instructions, \
            f"{program.name}: runaway program"


@pytest.mark.parametrize("name", sorted(set(workloads.names()) - {"fuzz"}))
def test_soundness_on_builtin_kernels(name):
    inst = workloads.get(name).build(n_threads=4, n_per_thread=16)
    for tid in range(inst.n_threads):
        _assert_hints_sound(inst.program, inst.init_regs[tid])


def test_soundness_on_fuzz_programs():
    """100 fixed-seed generated programs, every thread's trace."""
    from repro.fuzz.generator import sample_spec

    checked = 0
    for index in range(100):
        spec = sample_spec(run_seed=1234, index=index)
        inst = workloads.get("fuzz").build(
            n_threads=2, n_per_thread=8, gen=spec.as_dict())
        for tid in range(inst.n_threads):
            _assert_hints_sound(inst.program, inst.init_regs[tid])
        checked += 1
    assert checked == 100
