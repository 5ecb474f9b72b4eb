"""Property-based tests (hypothesis) for the cache model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, CacheBusy, CacheConfig
from repro.stats.counters import Stats


class FixedLatencyBackend:
    def __init__(self, latency=50):
        self.latency = latency
        self.accesses = 0

    def access(self, now, line_addr, is_write=False, requestor=0):
        self.accesses += 1
        return now + self.latency


def make_cache(size=2048, assoc=4, mshrs=8):
    be = FixedLatencyBackend()
    return Cache(CacheConfig(name="c", size_bytes=size, assoc=assoc, latency=2,
                             mshrs=mshrs), be, Stats("c")), be


def present(cache, now, addr, is_write=False):
    """The access's reply, or its ``CacheBusy`` if it was refused."""
    try:
        return cache.access(now, addr, is_write)
    except CacheBusy as busy:
        return busy


addr_strategy = st.integers(min_value=0, max_value=255).map(lambda x: x * 64)
trace_strategy = st.lists(st.tuples(addr_strategy, st.booleans()),
                          min_size=1, max_size=300)


@given(trace_strategy)
@settings(max_examples=50, deadline=None)
def test_capacity_never_exceeded(trace):
    cache, _ = make_cache()
    now = 0
    max_lines = cache.num_sets * cache.config.assoc
    for addr, is_write in trace:
        now += 3
        present(cache, now, addr, is_write)
        assert cache.resident_lines() <= max_lines


@given(trace_strategy)
@settings(max_examples=50, deadline=None)
def test_completion_never_before_request(trace):
    cache, _ = make_cache()
    now = 0
    for addr, is_write in trace:
        now += 3
        r = present(cache, now, addr, is_write)
        if isinstance(r, CacheBusy):
            assert r.retry_at > now
        else:
            assert r[0] >= now


@given(trace_strategy)
@settings(max_examples=50, deadline=None)
def test_second_access_to_same_line_is_hit(trace):
    """After any accepted access settles, an immediate re-access hits."""
    cache, _ = make_cache()
    now = 0
    for addr, is_write in trace:
        now += 3
        r = present(cache, now, addr, is_write)
        if not isinstance(r, CacheBusy):
            assert cache.access(max(now + 1, r[0]), addr)[1]


@given(trace_strategy)
@settings(max_examples=30, deadline=None)
def test_hits_plus_misses_equals_accepted_accesses(trace):
    cache, _ = make_cache()
    now = 0
    accepted = 0
    for addr, is_write in trace:
        now += 3
        if not isinstance(present(cache, now, addr, is_write), CacheBusy):
            accepted += 1
    s = cache.stats
    assert s["hits"] + s["under_fill_hits"] + s["misses"] == accepted


@given(trace_strategy, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_bigger_cache_never_misses_more(trace, sets_pow):
    """Miss count is monotone non-increasing in capacity for LRU (inclusion
    property on a per-set basis holds because sets partition lines)."""
    small, _ = make_cache(size=1024, assoc=2)
    big, _ = make_cache(size=1024 * 8, assoc=16)
    now = 0
    for addr, is_write in trace:
        now += 3
        present(small, now, addr, is_write)
        present(big, now, addr, is_write)
    # allowance: requests the small cache *rejected* (MSHRs exhausted or all
    # ways in flight) never became misses there but do in the big cache
    rejected = small.stats["mshr_full"] + small.stats["set_busy"]
    assert big.stats["misses"] <= small.stats["misses"] + rejected


@given(st.lists(addr_strategy, min_size=1, max_size=100))
@settings(max_examples=30, deadline=None)
def test_pinned_lines_survive_any_traffic(addrs):
    cache, _ = make_cache(size=1024, assoc=2)
    pinned_addr = 0x10000
    cache.warm(pinned_addr, is_reg=True, pin=1)
    now = 0
    for addr in addrs:
        now += 3
        # avoid the pinned line's own set being 100% pinned-traffic
        present(cache, now, addr)
    # the pinned line survives unless a forced eviction was required
    if cache.stats["forced_pinned_evictions"] == 0:
        assert cache.contains(pinned_addr)


def line_states(cache):
    return {(i, tag): (l.dirty, l.ready_at, l.is_reg, l.pin, l.lru)
            for i, ways in enumerate(cache._sets)
            for tag, l in ways.items()}


@given(trace_strategy, st.sampled_from((1, 2, 8)))
@settings(max_examples=50, deadline=None)
def test_a_refused_access_only_counts_itself(trace, mshrs):
    """A refused access bumps ``reads``/``writes`` and its refusal counter
    (``mshr_full`` or ``set_busy``) by one, and moves nothing else: no
    other counter, no line, no request below."""
    cache, be = make_cache(size=1024, assoc=2, mshrs=mshrs)
    now = 0
    refused = 0
    for addr, is_write in trace:
        now += 1
        before = cache.stats.as_dict()
        lines, below = line_states(cache), be.accesses
        r = present(cache, now, addr, is_write)
        if not isinstance(r, CacheBusy):
            continue
        refused += 1
        after = cache.stats.as_dict()
        moved = {k: after.get(k, 0) - before.get(k, 0)
                 for k in set(before) | set(after)
                 if after.get(k, 0) != before.get(k, 0)}
        kind = "c.writes" if is_write else "c.reads"
        assert moved.pop(kind) == 1
        assert list(moved.values()) == [1]
        assert set(moved) <= {"c.mshr_full", "c.set_busy"}
        assert line_states(cache) == lines and be.accesses == below
    s = cache.stats
    assert s["mshr_full"] + s["set_busy"] == refused
