"""The memory stage's load slots and store queue against the list model.

``TimelineCore.load_slots`` / ``store_queue`` are min-heaps: the generated
``ldr`` / ``str`` steps drop the expired heads inline and call
``_load_slot_wait`` / ``_sq_insert`` only when the structure is full.  The
oracle is the list-rebuild bodies of those two methods from before the
heaps, copied verbatim into :class:`ListStage`.  Random request cycles
that are not monotonic drive both sides, through the methods and through
the generated steps, over a dcache stub that accepts every access and
completes it after a random latency.  Each side must answer with the same
cycle, count the same stalls and keep the same live entries.
"""

import random
from heapq import heappush

import pytest

from repro.core.base import CoreConfig, TimelineCore
from repro.core.cgmt import make_threads
from repro.isa import assemble
from repro.memory import Cache, CacheConfig, MainMemory
from repro.stats.counters import Stats

from ..helpers import FixedLatencyBackend

# every op a branch target, so no step chains into another
SRC = """
    b.eq ld
    b.eq st
    b.eq hl
ld: ldr x1, [x2]
st: str x3, [x2]
hl: halt
"""
LDR_PC, STR_PC = 3, 4

#: (max_outstanding_loads, sq_entries)
SIZES = [(loads, sq) for loads in (1, 2, 8) for sq in (1, 5)]


class StubDcache:
    """Accepts every access; completes it ``next(latencies)`` cycles after
    issue.  Logs each issue cycle."""

    def __init__(self, latencies):
        self.latencies = iter(latencies)
        self.issued = []

    def access(self, t_issue, addr, is_write=False, requestor=0,
               is_load_data=False, is_register=False, pin_delta=0):
        self.issued.append(t_issue)
        return t_issue + next(self.latencies), True, False


class ListStage:
    """The list-rebuild memory stage: one ``dcache_request`` per call over
    the same stub, with a port that is free at every request."""

    def __init__(self, config, latencies):
        self.config = config
        self.stats = Stats("list")
        self.load_slots = []
        self.store_queue = []
        self.dcache = StubDcache(latencies)

    def dcache_request(self, t, addr, is_write=False, is_load_data=False,
                       is_register=False, pin_delta=0):
        done, hit, switch = self.dcache.access(t, addr, is_write)
        return t, done, hit, switch

    # ------------------------------------- verbatim from TimelineCore
    def _sq_insert(self, t: int, addr: int) -> int:
        """Insert a store at cycle ``t``; returns cycle the SQ accepted it."""
        self.store_queue = [c for c in self.store_queue if c > t]
        while len(self.store_queue) >= self.config.sq_entries:
            t = min(self.store_queue)
            self.store_queue = [c for c in self.store_queue if c > t]
            self.stats.inc("sq_full_stalls")
        self.store_queue.append(self.dcache_request(t, addr, True)[1])
        return t

    def _load_slot_wait(self, t: int) -> int:
        self.load_slots = [c for c in self.load_slots if c > t]
        while len(self.load_slots) >= self.config.max_outstanding_loads:
            t = min(self.load_slots)
            self.load_slots = [c for c in self.load_slots if c > t]
            self.stats.inc("load_slot_stalls")
        return t


def build(config, latencies):
    ic = Cache(CacheConfig(name="ic", size_bytes=4096, assoc=4, latency=2),
               FixedLatencyBackend(), Stats("ic"))
    dc = Cache(CacheConfig(name="dc", size_bytes=4096, assoc=4, latency=2),
               FixedLatencyBackend(), Stats("dc"))
    core = TimelineCore(assemble(SRC), ic, dc, MainMemory(), make_threads(1),
                        config=config)
    core.dcache = StubDcache(latencies)
    return core


def requests(seed, n=600):
    """``n`` of (is_store, t): a cycle drifting up with jitter, so the
    structures fill while ``t`` often steps back."""
    rng = random.Random(seed)
    return [(rng.random() < 0.4, max(8, 2 * i + rng.randint(-40, 40)))
            for i in range(n)]


def latencies(seed, n=600):
    rng = random.Random(seed + 1)
    return [rng.randint(1, 200) for _ in range(n)]


def counts(stats):
    flat = dict(stats.flat())
    return tuple(int(flat.get(f"{stats.name}.{key}", 0))
                 for key in ("load_slot_stalls", "sq_full_stalls"))


def assert_same(core, model):
    assert sorted(core.load_slots) == sorted(model.load_slots)
    assert sorted(core.store_queue) == sorted(model.store_queue)
    assert counts(core.stats) == counts(model.stats)


@pytest.mark.parametrize("loads,sq", SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_heap_methods_match_the_list_rebuild(loads, sq, seed):
    config = CoreConfig(name="core", max_outstanding_loads=loads,
                        sq_entries=sq)
    lat = latencies(seed)
    core = build(config, lat)
    model = ListStage(config, lat)
    for i, (is_store, t) in enumerate(requests(seed)):
        if is_store:
            core.dcache_port_free = 0
            assert core._sq_insert(t, 0) == model._sq_insert(t, 0)
        else:
            t_m = core._load_slot_wait(t)
            assert t_m == model._load_slot_wait(t)
            done = t_m + lat[i]
            heappush(core.load_slots, done)
            model.load_slots.append(done)
        assert_same(core, model)
    assert all(counts(model.stats))     # both slow paths ran


@pytest.mark.parametrize("loads,sq", SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_generated_steps_match_the_list_rebuild(loads, sq, seed):
    """The ``ldr`` / ``str`` steps, each run with its execute stage
    finishing at ``t`` (the issue stage idle, the dcache port free):
    the dcache sees the same issue cycle, the store commits at the same
    cycle, and the slots and queue hold the same entries."""
    config = CoreConfig(name="core", max_outstanding_loads=loads,
                        sq_entries=sq)
    lat = latencies(seed)
    core = build(config, lat)
    model = ListStage(config, lat)
    thread = core.threads[0]
    ops = core.dprog.ops
    for is_store, t in requests(seed):
        pc = STR_PC if is_store else LDR_PC
        thread.pc = pc
        core._last_fetch_line = ops[pc].line
        core.fetch_avail = core.decode_free = core.commit_tail = 0
        core.dcache_port_free = 0
        core.scoreboard.clear()
        core.ex_free = t - ops[pc].ex_latency   # execute completes at t
        assert core._ccode[pc](core, thread) == 1
        if is_store:
            accepted = model._sq_insert(t, 0)
            assert core.commit_tail == accepted
        else:
            t_m = model._load_slot_wait(t)
            model.load_slots.append(model.dcache_request(t_m, 0)[1])
        assert core.dcache.issued == model.dcache.issued
        assert_same(core, model)
    assert all(counts(model.stats))     # both slow paths ran
