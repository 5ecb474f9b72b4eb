"""Tests for the set-associative cache with MSHRs and register-line pinning."""

import pytest

from repro.memory import Cache, CacheBusy, CacheConfig
from repro.stats.counters import Stats


class FixedLatencyBackend:
    """Next-level stub with constant latency; records traffic."""

    def __init__(self, latency=50):
        self.latency = latency
        self.accesses = []

    def access(self, now, line_addr, is_write=False, requestor=0):
        self.accesses.append((now, line_addr, is_write))
        return now + self.latency


def make_cache(size=1024, assoc=2, latency=2, mshrs=4, backend=None):
    backend = backend or FixedLatencyBackend()
    c = Cache(CacheConfig(name="d", size_bytes=size, assoc=assoc, latency=latency,
                          mshrs=mshrs), backend, Stats("d"))
    return c, backend


def test_miss_then_hit():
    c, be = make_cache()
    assert c.access(0, 0x1000) == (2 + 50, False, False)
    assert c.access(52, 0x1000) == (52 + 2, True, False)


def test_same_line_different_words_hit():
    c, _ = make_cache()
    done, _, _ = c.access(0, 0x1000)
    _, hit, _ = c.access(done, 0x1038)  # last word of same 64B line
    assert hit


def test_under_fill_merge():
    c, _ = make_cache()
    done, _, _ = c.access(0, 0x1000)
    # line still being filled: a hit that completes with the fill
    assert c.access(1, 0x1000) == (done, True, False)
    assert c.stats["under_fill_hits"] == 1
    assert c.stats["hits"] == 0


def test_lru_eviction_within_set():
    # size 1024, assoc 2, 64B lines -> 8 sets; lines mapping to set 0 are
    # multiples of 8*64 = 512 bytes
    c, be = make_cache()
    c.warm(0x0000)
    c.warm(0x0200)  # same set, both ways full
    c.access(10, 0x0200)  # touch -> 0x0000 becomes LRU
    _, hit, _ = c.access(20, 0x0400)  # forces eviction of 0x0000
    assert not hit
    assert not c.contains(0x0000)
    assert c.contains(0x0200)


def test_dirty_writeback_on_eviction():
    c, be = make_cache()
    c.warm(0x0000, dirty=True)
    c.warm(0x0200)
    c.access(0, 0x0200)
    c.access(10, 0x0400)  # evicts dirty 0x0000
    writebacks = [a for a in be.accesses if a[2]]
    assert len(writebacks) == 1
    assert writebacks[0][1] == 0x0000


def test_mshr_limit_returns_retry():
    c, _ = make_cache(mshrs=2, size=4096, assoc=4)
    c.access(0, 0x0000)
    c.access(0, 0x1040)
    with pytest.raises(CacheBusy) as busy:
        c.access(0, 0x2080)
    assert busy.value.retry_at == 52    # the first fill's completion
    assert c.stats["mshr_full"] == 1
    assert c.stats["reads"] == 3        # the refused access was presented


def test_mshr_entries_freed_after_fill():
    c, _ = make_cache(mshrs=1)
    done, _, _ = c.access(0, 0x0000)
    c.access(done + 1, 0x2040)          # accepted: no CacheBusy
    assert c.stats["mshr_full"] == 0


def test_switch_signal_on_data_load_miss_only():
    c, _ = make_cache()
    done, _, switch = c.access(0, 0x5000, is_load_data=True)
    assert switch
    assert c.access(done, 0x5000, is_load_data=True)[1:] == (True, False)
    # plain (non-load-data) miss: no switch signal
    assert c.access(1000, 0x9000)[2] is False


def test_register_region_suppresses_switch_signal():
    c, _ = make_cache()
    c.register_region = (0x8000, 0x9000)
    assert c.access(0, 0x8040, is_load_data=True)[2] is False
    assert c.in_register_region(0x8040)
    assert not c.in_register_region(0x9000)


def test_register_line_pinning_blocks_eviction():
    c, _ = make_cache()
    c.warm(0x0000, is_reg=True, pin=1)
    c.warm(0x0200)
    c.access(5, 0x0000, is_register=True)  # keep it MRU? no - touch other
    c.access(6, 0x0200)
    # 0x0000 pinned; eviction must pick 0x0200 even though 0x0000 is LRU
    c.access(10, 0x0400)
    assert c.contains(0x0000)
    assert not c.contains(0x0200)


def test_pin_counter_increments_and_decrements():
    c, _ = make_cache()
    done, _, _ = c.access(0, 0x0000, is_register=True, pin_delta=1)
    line = c.line_state(0x0000)
    assert line.pin == 1 and line.is_reg
    c.access(done, 0x0000, is_register=True, pin_delta=1)
    assert line.pin == 2
    c.access(done + 5, 0x0000, is_write=True, is_register=True, pin_delta=-1)
    c.access(done + 6, 0x0000, is_write=True, is_register=True, pin_delta=-1)
    assert line.pin == 0


def test_pin_saturates_at_7():
    c, _ = make_cache()
    c.warm(0x0000, is_reg=True)
    for i in range(10):
        c.access(i + 1, 0x0000, is_register=True, pin_delta=1)
    assert c.line_state(0x0000).pin == 7


def test_forced_eviction_when_all_ways_pinned():
    c, _ = make_cache()
    c.warm(0x0000, is_reg=True, pin=1)
    c.warm(0x0200, is_reg=True, pin=1)
    c.access(0, 0x0400)                 # accepted: no CacheBusy
    assert c.stats["forced_pinned_evictions"] == 1


def test_write_allocates_and_dirties():
    c, _ = make_cache()
    assert not c.access(0, 0x3000, is_write=True)[1]
    assert c.line_state(0x3000).dirty


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        Cache(CacheConfig(size_bytes=1000, assoc=3), FixedLatencyBackend())


def test_resident_lines_counting():
    c, _ = make_cache()
    assert c.resident_lines() == 0
    c.warm(0x0000)
    c.warm(0x1000)
    assert c.resident_lines() == 2


def test_write_through_no_allocate():
    be = FixedLatencyBackend(30)
    c = Cache(CacheConfig(name="wt", size_bytes=1024, assoc=2,
                          write_policy="wt"), be, Stats("wt"))
    assert c.access(0, 0x4000, is_write=True) == (2 + 30, False, False)
    assert not c.contains(0x4000)          # no allocation
    assert c.stats["write_through"] == 1
    assert any(a[2] for a in be.accesses)  # write went downstream
    # read after write-through misses (line was never filled)
    assert not c.access(100, 0x4000)[1]


def test_write_through_hit_updates_line():
    be = FixedLatencyBackend(30)
    c = Cache(CacheConfig(name="wt", size_bytes=1024, assoc=2,
                          write_policy="wt"), be, Stats("wt"))
    c.warm(0x4000)
    assert c.access(0, 0x4000, is_write=True)[1]


def test_invalid_write_policy_rejected():
    with pytest.raises(ValueError):
        CacheConfig(write_policy="random")


@pytest.mark.parametrize("field,value", [
    ("line_bytes", 48),   # line address would not be a multiple of the line
    ("line_bytes", 0),
    ("assoc", 0),         # was a ZeroDivisionError in Cache.__init__
    ("mshrs", 0),         # was "min() arg is an empty sequence" on a miss
    ("latency", -1),
    ("size_bytes", 0),    # was a ZeroDivisionError in Cache.access
])
def test_invalid_geometry_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        CacheConfig(**{field: value})


def test_smallest_legal_geometry_works():
    c = Cache(CacheConfig(size_bytes=8, assoc=1, mshrs=1, latency=0,
                          line_bytes=8), FixedLatencyBackend(5))
    assert c.access(0, 0x10) == (5, False, False)
    assert c.access(5, 0x17)[1] and not c.access(6, 0x18)[1]
