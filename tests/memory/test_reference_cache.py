"""The flattened cache against the reference model it replaced.

``reference_cache.py`` prunes the MSHR table on every access, builds two
dicts per victim search and calls ``Stats.inc`` per event; the production
cache prunes lazily, searches in one pass and batches its hot counters.
Both are driven here with the same random request stream — non-monotonic
``now`` included, as a shared level sees it from several cores and one core
produces it with posted spills — and after every step the reply, the
backend's request log, the whole stats tree (``under_fill_hits`` included)
and the state of every touched line must agree.  The reference answers with
its own ``AccessResult``; the production cache returns ``(complete_at, hit,
switch_signal)`` or raises ``CacheBusy``, and the two must say the same
thing: the same triple for an accepted access, the same ``retry_at`` for a
refused one.  After every step the production cache's line table must hold
exactly the lines of its per-set dicts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, CacheConfig
from repro.memory import cache as production_cache
from repro.memory.prefetcher import StridePrefetcher
from repro.stats.counters import Stats

from . import reference_cache

LINE = 64
#: 8 data lines and 2 register lines over a 2-set x 2-way L1: every stream
#: of a few dozen requests conflicts, evicts and runs into pinned lines
DATA_LINES = 8
REG_BASE = 0x4000
REG_LINES = 2

addrs = st.builds(
    lambda line, word: line * LINE + word * 8,
    st.one_of(st.integers(0, DATA_LINES - 1),
              st.integers(REG_BASE // LINE, REG_BASE // LINE + REG_LINES - 1)),
    st.integers(0, 7))
#: a step from the previous request's cycle, or a cycle out of the blue —
#: far ahead of an outstanding fill or back before it completes
now_steps = st.one_of(st.tuples(st.just("+"), st.integers(-60, 60)),
                      st.tuples(st.just("@"), st.integers(0, 400)))

accesses = st.tuples(
    st.just("access"), now_steps, addrs, st.booleans(), st.booleans(),
    st.sampled_from((-1, 0, 1)), st.booleans(), st.integers(0, 1))

#: four demand reads a fixed number of lines apart: what arms the prefetcher
streams = st.builds(
    lambda start, stride: [
        ("access", ("+", 3), (start + i * stride) % DATA_LINES * LINE,
         False, False, 0, True, 0) for i in range(4)],
    st.integers(0, DATA_LINES - 1), st.sampled_from((1, 2, -1)))

ops = st.lists(st.one_of(
    accesses, accesses, accesses, accesses, streams,
    st.tuples(st.just("prefetch_fill"), now_steps, addrs),
    st.tuples(st.just("unpin"), addrs),
    st.tuples(st.just("invalidate_line"), addrs),
    st.tuples(st.just("warm"), addrs, st.booleans(), st.booleans(),
              st.integers(0, 7)),
), min_size=1, max_size=120)

shapes = st.fixed_dictionaries({
    "mshrs": st.sampled_from((1, 2, 24)),
    "write_policy": st.sampled_from(("wb", "wt")),
    "prefetcher": st.booleans(),
    "nested": st.booleans(),
})


class LoggingBackend:
    """Memory with an address-dependent latency that logs every request."""

    def __init__(self):
        self.log = []

    def access(self, now, line_addr, is_write=False, requestor=0):
        self.log.append((now, line_addr, is_write, requestor))
        return now + 20 + 7 * ((line_addr // LINE) % 5)


class Side:
    """One implementation's stack: L1 [-> L2] -> backend.  With
    ``reassign`` the L1 is built over a level of the other kind (a backend
    where the L2 goes, an L2 where the backend goes) and then handed its
    real one, as ``NearMemoryNode`` hands an L1 its address skew."""

    def __init__(self, module, shape, reassign=False):
        self.module = module
        self.stats = Stats("m")
        self.backend = LoggingBackend()
        prefetcher = (StridePrefetcher(degree=2, stats=self.stats.child("pf"))
                      if shape["prefetcher"] else None)
        below = self.backend
        self.caches = []
        if shape["nested"]:
            # a lower level that runs out of MSHRs: the ``retry_at`` loop
            below = module.Cache(
                CacheConfig(name="l2", size_bytes=8 * LINE, assoc=2,
                            latency=3, mshrs=min(shape["mshrs"], 2)),
                self.backend, self.stats.child("l2"), prefetcher=prefetcher)
            prefetcher = None
            self.caches.append(below)
        placeholder = below
        if reassign:
            placeholder = (LoggingBackend() if shape["nested"] else
                           module.Cache(CacheConfig(name="x"),
                                        LoggingBackend(), Stats("x")))
        self.l1 = module.Cache(
            CacheConfig(name="l1", size_bytes=4 * LINE, assoc=2, latency=2,
                        mshrs=shape["mshrs"],
                        write_policy=shape["write_policy"]),
            placeholder, self.stats.child("l1"), prefetcher=prefetcher)
        self.l1.next_level = below
        self.l1.register_region = (REG_BASE, REG_BASE + REG_LINES * LINE)
        self.caches.append(self.l1)

    def present(self, *args, **flags):
        """One L1 access as ``(complete_at, hit, switch_signal)``, or
        ``("busy", retry_at)`` when it is refused."""
        if self.module is reference_cache:
            r = self.l1.access(*args, **flags)
            return ((r.complete_at, r.hit, r.switch_signal) if r.accepted
                    else ("busy", r.retry_at))
        try:
            return self.l1.access(*args, **flags)
        except production_cache.CacheBusy as busy:
            return ("busy", busy.retry_at)

    def access(self, now, addr, is_write, is_register, pin_delta,
               is_load_data, requestor):
        """Present the request, re-presenting it while it is refused (as
        ``dcache_request`` does); every reply of the exchange."""
        replies = []
        for _ in range(4):
            r = self.present(now, addr, is_write, requestor=requestor,
                             is_load_data=is_load_data,
                             is_register=is_register, pin_delta=pin_delta)
            replies.append(r)
            if r[0] != "busy":
                break
            now = max(r[1], now + 1)
        return replies

    def line(self, addr):
        line = self.l1.line_state(addr)
        return None if line is None else (
            line.tag, line.dirty, line.ready_at, line.is_reg, line.pin,
            line.lru)


def assert_one_line_table(cache):
    """The hit lookup's ``line_addr -> line`` table holds exactly the lines
    of the per-set dicts, each as the same object."""
    union = {(tag * cache.num_sets + set_idx) << cache._line_shift: line
             for set_idx, ways in enumerate(cache._sets)
             for tag, line in ways.items()}
    assert union.keys() == cache._lines.keys()
    assert all(cache._lines[a] is line for a, line in union.items())


@given(shapes, ops)
@settings(max_examples=300, deadline=None)
def test_cache_agrees_with_reference_model(shape, stream):
    run_stream(Side(production_cache, shape), Side(reference_cache, shape),
               stream)


@given(shapes, ops)
@settings(max_examples=100, deadline=None)
def test_a_reassigned_next_level_agrees_with_reference_model(shape, stream):
    """An L1 whose ``next_level`` is replaced after construction forwards
    as one built over it: directly to a backend, through the refusal
    retry loop to a nested cache."""
    new = Side(production_cache, shape, reassign=True)
    assert (new.l1._direct is None) == shape["nested"]
    run_stream(new, Side(reference_cache, shape), stream)


def run_stream(new, ref, stream):
    now = 0
    touched = set()
    flat = [op for item in stream
            for op in (item if isinstance(item, list) else [item])]
    for kind, *args in flat:
        if kind in ("access", "prefetch_fill"):
            how, cycles = args[0]
            now = max(0, now + cycles) if how == "+" else cycles
            args = [now] + args[1:]
        addr = args[1] if kind in ("access", "prefetch_fill") else args[0]
        touched.add(addr)
        if kind == "access":
            assert new.access(*args) == ref.access(*args)
        else:
            assert (getattr(new.l1, kind)(*args)
                    == getattr(ref.l1, kind)(*args))
        assert new.backend.log == ref.backend.log
        assert new.stats.as_dict() == ref.stats.as_dict()
        for a in touched:
            assert new.line(a) == ref.line(a), hex(a)
        assert new.l1.resident_lines() == ref.l1.resident_lines()
        for cache in new.caches:
            assert_one_line_table(cache)


def test_positional_and_keyword_flags_are_the_same_call():
    """Ports pass the flags positionally, older callers by keyword."""
    a, b = (Cache(CacheConfig(size_bytes=8 * LINE, assoc=2), LoggingBackend())
            for _ in range(2))
    for t, addr in enumerate((0, 64, 0, 4096, 64)):
        ra = a.access(t, addr, True, 1, False, True, 1)
        rb = b.access(t, addr, is_write=True, requestor=1, is_load_data=False,
                      is_register=True, pin_delta=1)
        assert ra == rb
    assert a.stats.as_dict() == b.stats.as_dict()
    assert a.line_state(0) == b.line_state(0)


def test_a_later_now_frees_the_mshr_for_an_earlier_one():
    """The lazy rule's defining case: the fill of line 0 completes at 32;
    a hit presented at cycle 200 retires its MSHR, so a miss presented
    *earlier* (cycle 20, another core's clock) is accepted — pruning with
    that request's own ``now`` would refuse it."""
    cache = Cache(CacheConfig(size_bytes=4 * LINE, assoc=2, mshrs=1),
                  LoggingBackend())
    assert cache.access(10, 0)[0] == 32
    assert cache.access(200, 0)[1]
    cache.access(20, LINE)              # accepted: no CacheBusy
    assert cache.stats["mshr_full"] == 0
