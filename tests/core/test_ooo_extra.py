"""Additional OoO-model coverage: queues, FU pools, commit discipline."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.ooo import OoOConfig, OoOCore, _UnitPool  # noqa: E402
from repro.isa import X, assemble  # noqa: E402
from repro.memory import HostMemorySystem, MainMemory  # noqa: E402


def build(src, cfg=None, symbols=None, mem=None):
    host = HostMemorySystem()
    return OoOCore(assemble(src, symbols=symbols), host.icache, host.dcache,
                   mem or MainMemory(), cfg)


def test_unit_pool_round_robin_reservation():
    pool = _UnitPool(2)
    assert pool.reserve(0) == 0
    assert pool.reserve(0) == 0   # second unit
    assert pool.reserve(0) == 1   # both busy at t=0 -> next cycle
    assert pool.reserve(5) == 5


def test_fp_pool_narrower_than_alu():
    fp_heavy = "fmov d0, #1.0\n" + "\n".join(
        f"fadd d{1 + i % 6}, d0, d0" for i in range(120)) + "\nhalt"
    int_heavy = "mov x0, #1\n" + "\n".join(
        f"add x{1 + i % 6}, x0, x0" for i in range(120)) + "\nhalt"
    cf = build(fp_heavy).run()["cycles"]
    ci = build(int_heavy).run()["cycles"]
    assert cf > ci  # 2 FP pipes vs 4 ALU pipes (plus FP latency)


def test_load_queue_bounds_mlp():
    # many independent missing loads: a tiny LQ throttles overlap
    body = "\n".join(f"ldr x{2 + i % 8}, [x1, #{i * 512}]" for i in range(64))
    src = f"adr x1, a\n{body}\nhalt"
    sym = {"a": 0x100000}
    big = build(src, OoOConfig(), symbols=sym).run()["cycles"]
    small = build(src, OoOConfig(lq_entries=2), symbols=sym).run()["cycles"]
    assert small > big


def test_store_queue_capacity():
    body = "\n".join(f"str x0, [x1, #{i * 512}]" for i in range(64))
    src = f"adr x1, a\nmov x0, #1\n{body}\nhalt"
    sym = {"a": 0x100000}
    big = build(src, OoOConfig(), symbols=sym).run()["cycles"]
    small = build(src, OoOConfig(sq_entries=2), symbols=sym).run()["cycles"]
    assert small >= big


def test_stats_shape():
    stats = build("mov x0, #1\nadd x1, x0, #2\nhalt").run()
    assert stats["instructions"] == 2
    assert stats["cycles"] >= 1
    assert stats["ipc"] > 0


def test_flags_serialize_dependent_branches():
    loop = """
        mov x0, #0
        loop:
        add x0, x0, #1
        cmp x0, #50
        b.lt loop
        halt
    """
    core = build(loop)
    stats = core.run()
    # dependent cmp->branch chain caps IPC well under the 8-wide peak
    assert stats["ipc"] < 4.0


def test_init_regs_respected():
    core = build("add x2, x0, x1\nhalt")
    core.run({X(0): 40, X(1): 2})
    assert core.state.xregs[:3] == [40, 2, 42]
    # the store path writes the same value to memory
    core2 = build("add x2, x0, x1\nadr x3, out\nstr x2, [x3, #0]\nhalt",
                  symbols={"out": 0x5000})
    mem = core2.memory
    core2.run({X(0): 40, X(1): 2})
    assert mem.load(0x5000) == 42
