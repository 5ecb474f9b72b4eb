"""Tests for the timeline in-order pipeline engine."""

import pytest

from repro.core.base import CoreConfig, ThreadContext, TimelineCore
from repro.core.cgmt import make_threads
from repro.core.inorder import InOrderCore
from repro.isa import X, assemble, run_functional
from repro.memory import Cache, CacheConfig, MainMemory
from repro.stats.counters import Stats


class FixedLatencyBackend:
    def __init__(self, latency=40):
        self.latency = latency

    def access(self, now, line_addr, is_write=False, requestor=0):
        return now + self.latency


def build_core(src, symbols=None, n_threads=1, core_cls=InOrderCore,
               mem_latency=40, dcache_kb=8, **core_kw):
    prog = assemble(src, symbols=symbols)
    mem = MainMemory()
    backend = FixedLatencyBackend(mem_latency)
    ic = Cache(CacheConfig(name="ic", size_bytes=32 * 1024, assoc=4, latency=2),
               backend, Stats("ic"))
    dc = Cache(CacheConfig(name="dc", size_bytes=dcache_kb * 1024, assoc=4,
                           latency=2, mshrs=24), backend, Stats("dc"))
    threads = make_threads(n_threads)
    core = core_cls(prog, ic, dc, mem, threads, **core_kw)
    return core, mem


def test_alu_loop_ipc_near_one():
    # tight ALU loop: 1 instruction/cycle minus branch redirect bubbles
    core, _ = build_core(
        """
        mov x0, #0
        loop:
        add x0, x0, #1
        add x1, x1, #2
        add x2, x2, #3
        add x3, x3, #4
        cmp x0, #200
        b.lt loop
        halt
        """
    )
    stats = core.run()
    assert stats["instructions"] == 2 + 200 * 6 - 1
    ipc = stats["ipc"]
    assert 0.5 < ipc <= 1.0


def test_functional_equivalence_with_golden_model():
    src = """
        mov x0, #0
        mov x1, #0
        loop:
        madd x1, x0, x0, x1
        add x0, x0, #1
        cmp x0, #20
        b.lt loop
        halt
    """
    core, _ = build_core(src)
    core.run()
    golden = run_functional(assemble(src))
    assert core.threads[0].xregs[:4] == golden.state.xregs[:4]


def test_load_miss_stalls_single_thread():
    src = """
        adr x1, data
        ldr x2, [x1, #0]
        add x3, x2, #1
        halt
    """
    core, mem = build_core(src, symbols={"data": 0x10000}, mem_latency=100)
    mem.write_array(0x10000, [41])
    stats = core.run()
    assert core.threads[0].xregs[3] == 42
    assert stats["cycles"] > 100  # miss latency visible
    assert stats["context_switches"] == 0


def test_cache_hit_after_warm():
    src = """
        adr x1, data
        ldr x2, [x1, #0]
        ldr x3, [x1, #8]
        ldr x4, [x1, #16]
        halt
    """
    core, mem = build_core(src, symbols={"data": 0x10000}, mem_latency=100)
    mem.write_array(0x10000, [1, 2, 3])
    stats = core.run()
    # one miss (first load), then same-line hits
    assert core.dcache.stats["misses"] == 1
    assert stats["cycles"] < 260  # icache cold miss + one dcache miss


def test_two_outstanding_loads_overlap():
    # two independent missing loads to different lines overlap with
    # max_outstanding_loads=2 but serialize with 1
    src = """
        adr x1, a
        adr x2, b
        ldr x3, [x1, #0]
        ldr x4, [x2, #0]
        halt
    """
    sym = {"a": 0x10000, "b": 0x20000}
    core2, m2 = build_core(src, symbols=sym, mem_latency=100)
    c2 = core2.run()["cycles"]

    core1, m1 = build_core(
        src, symbols=sym, mem_latency=100, core_cls=TimelineCore,
        config=CoreConfig(name="1ld", max_outstanding_loads=1))
    c1 = core1.run()["cycles"]
    assert c2 < c1  # overlap saves time


def test_store_queue_capacity_backpressure():
    # more back-to-back stores than SQ entries must stall eventually
    body = "\n".join(f"str x0, [x1, #{i * 512}]" for i in range(12))
    src = f"adr x1, out\nmov x0, #7\n{body}\nhalt"
    core, mem = build_core(src, symbols={"out": 0x30000}, mem_latency=200)
    stats = core.run()
    assert stats["sq_full_stalls"] > 0
    for i in range(12):
        assert mem.load(0x30000 + i * 512) == 7


def test_taken_branch_redirect_costs_cycles():
    taken = """
        mov x0, #0
        loop:
        add x0, x0, #1
        cmp x0, #100
        b.lt loop
        halt
    """
    from repro.core.base import CoreConfig, TimelineCore
    c_pen, _ = build_core(taken, core_cls=TimelineCore,
                          config=CoreConfig(name="pen", redirect_penalty=3))
    c_free, _ = build_core(taken, core_cls=TimelineCore,
                           config=CoreConfig(name="free", redirect_penalty=0))
    assert c_pen.run()["cycles"] > c_free.run()["cycles"]


def test_multiply_latency_visible():
    muls = "mov x1, #3\nmov x0, #1\n" + "mul x0, x0, x1\n" * 50 + "halt"
    adds = "mov x1, #3\nmov x0, #1\n" + "add x0, x0, x1\n" * 50 + "halt"
    cm, _ = build_core(muls)
    ca, _ = build_core(adds)
    assert cm.run()["cycles"] > ca.run()["cycles"]
    assert cm.threads[0].xregs[0] == (3 ** 50) & ((1 << 64) - 1)


def test_inorder_core_rejects_multiple_threads():
    with pytest.raises(ValueError):
        build_core("halt", n_threads=2)


@pytest.mark.parametrize("tids, position, tid", [
    ((1, 0), 0, 1),         # out of order
    ((0, 2), 1, 2),         # a gap
    ((0, 1, -1), 2, -1),    # a negative id would index from the end
    ((0, 0), 1, 0),         # a duplicate
])
def test_core_rejects_thread_ids_that_are_not_positions(tids, position, tid):
    """The scheduler ring, the context layout, the BSI addresses and the
    VRMU's CAM rows all take ``threads[i].tid == i`` on trust."""
    prog = assemble("halt")
    backend = FixedLatencyBackend()
    caches = [Cache(CacheConfig(name=name, size_bytes=8 * 1024, assoc=4,
                                latency=2), backend, Stats(name))
              for name in ("ic", "dc")]
    threads = [ThreadContext(tid=t) for t in tids]
    with pytest.raises(ValueError, match=rf"position {position} has tid {tid}\b"
                       ) as excinfo:
        TimelineCore(prog, *caches, MainMemory(), threads)
    assert "\n" not in str(excinfo.value)
    # the same ids in order are accepted
    TimelineCore(prog, *caches, MainMemory(),
                 [ThreadContext(tid=t) for t in range(len(tids))])


def test_stats_finalized():
    core, _ = build_core("mov x0, #1\nhalt")
    stats = core.run()
    assert stats["instructions"] == 1
    assert stats["cycles"] > 0
    assert 0 < stats["ipc"] <= 1
