"""Tests for the functional golden-model simulator."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import DeadlockError
from repro.isa import ArchState, X, D, arch_step, assemble, run_functional
from repro.memory.main_memory import MainMemory


def test_sum_loop():
    p = assemble(
        """
        mov x0, #0
        mov x1, #0
        loop:
        add x0, x0, x1
        add x1, x1, #1
        cmp x1, #10
        b.lt loop
        halt
        """
    )
    sim = run_functional(p)
    assert sim.state.xregs[0] == sum(range(10))


def test_memory_gather():
    mem = MainMemory()
    idx_base, data_base, out_base = 0x1000, 0x2000, 0x3000
    indices = [3, 1, 4, 1, 5]
    data = [10, 11, 12, 13, 14, 15]
    mem.write_array(idx_base, indices)
    mem.write_array(data_base, data)
    p = assemble(
        """
        adr x1, idx
        adr x2, data
        adr x3, out
        mov x5, #0
        loop:
        ldr x6, [x1, x5, lsl #3]
        ldr x7, [x2, x6, lsl #3]
        str x7, [x3, x5, lsl #3]
        add x5, x5, #1
        cmp x5, #5
        b.lt loop
        halt
        """,
        symbols={"idx": idx_base, "data": data_base, "out": out_base},
    )
    sim = run_functional(p, mem)
    assert mem.read_array(out_base, 5) == [data[i] for i in indices]


def test_post_index_walk():
    mem = MainMemory()
    mem.write_array(0x4000, [5, 6, 7])
    p = assemble(
        """
        adr x1, arr
        ldr x2, [x1], #8
        ldr x3, [x1], #8
        ldr x4, [x1], #8
        halt
        """,
        symbols={"arr": 0x4000},
    )
    sim = run_functional(p, mem)
    assert (sim.state.xregs[2], sim.state.xregs[3], sim.state.xregs[4]) == (5, 6, 7)
    assert sim.state.xregs[1] == 0x4000 + 24


def test_fp_triad():
    mem = MainMemory()
    a, b, c = 0x1000, 0x2000, 0x3000
    mem.write_array(b, [1.0, 2.0, 3.0])
    mem.write_array(c, [10.0, 20.0, 30.0])
    p = assemble(
        """
        adr x1, a
        adr x2, b
        adr x3, c
        fmov d0, #2.0
        mov x5, #0
        loop:
        ldr d1, [x2, x5, lsl #3]
        ldr d2, [x3, x5, lsl #3]
        fmadd d3, d1, d0, d2
        str d3, [x1, x5, lsl #3]
        add x5, x5, #1
        cmp x5, #3
        b.lt loop
        halt
        """,
        symbols={"a": a, "b": b, "c": c},
    )
    run_functional(p, mem)
    assert mem.read_array(a, 3) == [12.0, 24.0, 36.0]


def test_halt_required():
    p = assemble("loop:\nb loop")
    sim_cls = run_functional
    with pytest.raises(RuntimeError):
        from repro.isa.func_sim import FunctionalSimulator
        s = FunctionalSimulator(p, max_instructions=1000)
        s.run()


def test_budget_overrun_is_a_deadlock_error():
    from repro.isa.func_sim import FunctionalSimulator
    s = FunctionalSimulator(assemble("loop:\nb loop"), max_instructions=1000)
    with pytest.raises(DeadlockError) as exc:
        s.run()
    assert exc.value.committed == 1001 and not s.halted


def test_budget_overrun_message_names_no_commit_clock():
    # the functional model has no clock: the message carries only the
    # instruction count
    from repro.isa.func_sim import FunctionalSimulator
    s = FunctionalSimulator(assemble("l:\nb l"), max_instructions=10)
    with pytest.raises(DeadlockError) as exc:
        s.run()
    assert str(exc.value).endswith(" [committed=11]")
    assert "commit_tail" not in str(exc.value)
    assert exc.value.commit_tail == -1


def test_init_regs():
    p = assemble("add x0, x1, x2\nhalt")
    sim = run_functional(p, init_regs={X(1): 30, X(2): 12})
    assert sim.state.xregs[0] == 42


def test_snapshot_keys():
    p = assemble("mov x0, #7\nfmov d1, #1.5\nhalt")
    sim = run_functional(p)
    snap = sim.state.snapshot()
    assert snap["x0"] == 7 and snap["d1"] == 1.5 and len(snap) == 64


def test_instruction_count():
    p = assemble("nop\nnop\nnop\nhalt")
    sim = run_functional(p)
    assert sim.instructions_executed == 3  # halt not counted


def test_arch_step_store_check_mode_leaves_memory_alone():
    p = assemble("adr x1, a\nmov x2, #9\nstr x2, [x1], #8\nhalt",
                 symbols={"a": 0x100})
    mem = MainMemory()
    st = ArchState(pc=p.entry)
    for _ in range(2):
        arch_step(st, p[st.pc], mem)
    res = arch_step(st, p[st.pc], mem, store=False)
    assert (res.addr, res.store_value) == (0x100, 9)
    assert mem.load(0x100) == 0 and st.xregs[1] == 0x108 and st.pc == 3
    assert arch_step(st, p[st.pc], mem).halt and st.pc == 3


def test_copy_is_independent_and_architectural_only():
    from repro.core.base import ThreadContext
    th = ThreadContext(tid=2, pc=5)
    th.write(X(3), -1)
    c = ArchState.copy(th)
    assert type(c) is ArchState and c == ArchState(pc=5, xregs=th.xregs,
                                                    flags=th.flags)
    c.xregs[3] = 0
    c.flags.z = False
    assert th.xregs[3] == (1 << 64) - 1 and th.flags.z


def _evaluate_callers():
    """Modules under ``src/repro`` that call ``instructions.evaluate``."""
    root = Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "evaluate") or (
                    isinstance(f, ast.Attribute) and f.attr == "evaluate"
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("instructions", "isa")):
                callers.add(path.relative_to(root).as_posix())
    return callers


def test_arch_step_is_the_only_caller_of_evaluate():
    """Every architectural state in ``src`` advances through ``arch_step``:
    no module outside ``isa/`` evaluates an instruction itself."""
    callers = _evaluate_callers()
    assert not {m for m in callers if not m.startswith("isa/")}
    assert callers == {"isa/func_sim.py"}
