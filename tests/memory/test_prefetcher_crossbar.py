"""Tests for the stride prefetcher, crossbar, and hierarchy wiring."""

from repro.memory import (
    Cache,
    CacheConfig,
    Crossbar,
    HostMemorySystem,
    MainMemory,
    NDPMemorySystem,
    StridePrefetcher,
)
from repro.stats.counters import Stats


class FixedLatencyBackend:
    def __init__(self, latency=50):
        self.latency = latency
        self.accesses = []

    def access(self, now, line_addr, is_write=False, requestor=0):
        self.accesses.append((now, line_addr, is_write))
        return now + self.latency


def test_stride_detection_issues_degree_prefetches():
    be = FixedLatencyBackend()
    pf = StridePrefetcher(degree=8)
    c = Cache(CacheConfig(size_bytes=64 * 1024, assoc=8), be, Stats("l2"), prefetcher=pf)
    # three misses with stride 64 -> confidence 2 -> prefetch
    c.access(0, 0)
    c.access(10, 64)
    c.access(20, 128)
    assert pf.stats["issued"] == 8
    # prefetched lines are now present
    assert c.contains(128 + 64)
    assert c.contains(128 + 8 * 64)


def test_prefetched_line_hits_later():
    be = FixedLatencyBackend(latency=40)
    pf = StridePrefetcher(degree=2)
    c = Cache(CacheConfig(size_bytes=64 * 1024, assoc=8), be, Stats("l2"), prefetcher=pf)
    c.access(0, 0)
    c.access(10, 64)
    c.access(20, 128)
    assert c.access(500, 192)[1]  # covered by prefetch, fill long done
    assert c.stats["under_fill_hits"] == 0


def test_no_prefetch_on_random_strides():
    pf = StridePrefetcher(degree=4)
    c = Cache(CacheConfig(size_bytes=64 * 1024, assoc=8), FixedLatencyBackend(),
              Stats("l2"), prefetcher=pf)
    for i, a in enumerate([0, 640, 64, 8192, 256]):
        c.access(i * 10, a)
    assert pf.stats["issued"] == 0


def test_crossbar_adds_latency():
    be = FixedLatencyBackend(latency=30)
    xbar = Crossbar(be, latency=6)
    done = xbar.access(0, 0)
    assert done == 6 + 30


def test_crossbar_serializes_bandwidth():
    be = FixedLatencyBackend(latency=0)
    xbar = Crossbar(be, latency=0, requests_per_cycle=1)
    times = [xbar.access(0, i * 64) for i in range(4)]
    assert times == sorted(times)
    assert times[-1] >= 3  # queued behind 3 earlier requests


def test_ndp_memory_system_shape():
    sys = NDPMemorySystem(n_cores=4)
    assert len(sys.cores) == 4
    p0 = sys.ports(0)
    assert p0.dcache.config.size_bytes == 8 * 1024
    assert p0.icache.config.size_bytes == 32 * 1024
    # all cores share the crossbar and DRAM
    assert sys.ports(1).dcache.next_level is sys.crossbar


def test_ndp_cores_contend_via_crossbar():
    sys = NDPMemorySystem(n_cores=2, crossbar_latency=4)
    done0, _, _ = sys.ports(0).dcache.access(0, 0x10000, is_load_data=True)
    done1, _, _ = sys.ports(1).dcache.access(0, 0x90000, is_load_data=True)
    # second request observes crossbar/bank occupancy from the first
    assert done1 >= done0


def test_host_memory_system_l2_prefetcher():
    host = HostMemorySystem()
    ports = host.ports()
    assert ports.dcache.next_level is host.l2
    assert host.l2.prefetcher is not None


def test_main_memory_alignment_and_arrays():
    m = MainMemory()
    m.write_array(0x100, [1, 2, 3])
    assert m.read_array(0x100, 3) == [1, 2, 3]
    assert m.load(0x110) == 3
    import pytest
    with pytest.raises(ValueError):
        m.load(0x101)
