"""System-level edge cases: HBM preset, address skew, empty/degenerate runs."""

from types import SimpleNamespace

import pytest

from repro.memory.hierarchy import NDPMemorySystem
from repro.system import RunConfig, run_config
from repro.system.node import AddressSkew, NearMemoryNode


def test_hbm_preset_runs_and_differs_from_ddr5():
    ddr = run_config(RunConfig(workload="gather", core_type="virec",
                               n_threads=4, n_per_thread=16))
    hbm = run_config(RunConfig(workload="gather", core_type="virec",
                               n_threads=4, n_per_thread=16,
                               dram_preset="hbm"))
    assert ddr.correct and hbm.correct
    assert ddr.cycles != hbm.cycles  # different timing model actually used


def test_bad_dram_preset_rejected():
    with pytest.raises(ValueError, match="dram preset"):
        RunConfig(dram_preset="optane")


def test_hbm_channels_help_under_load():
    """8 narrow channels absorb multi-core traffic better than 2."""
    ddr = run_config(RunConfig(workload="stride", core_type="virec",
                               n_threads=8, n_cores=8, n_per_thread=16))
    hbm = run_config(RunConfig(workload="stride", core_type="virec",
                               n_threads=8, n_cores=8, n_per_thread=16,
                               dram_preset="hbm"))
    assert hbm.cycles < ddr.cycles * 1.05


def test_address_skew_separates_cores():
    calls = []

    class Spy:
        def access(self, now, line_addr, is_write=False, requestor=0):
            calls.append(line_addr)
            return now + 1

    spy = Spy()
    AddressSkew(spy, core_id=0).access(0, 0x1000)
    AddressSkew(spy, core_id=1).access(0, 0x1000)
    assert calls[0] != calls[1]
    assert calls[1] - calls[0] == 1 << 28


@pytest.mark.parametrize("n_cores", (1, 4))
def test_core_zero_takes_the_crossbar_and_the_others_a_skew(n_cores):
    """Core 0's skew offset is zero, so its L1s forward to the crossbar
    itself; every other core's L1s go through their own ``AddressSkew``."""
    memsys = NDPMemorySystem(n_cores=n_cores)
    node = NearMemoryNode(
        n_cores, memsys, lambda cid, icache, dcache: SimpleNamespace(
            cid=cid, icache=icache, dcache=dcache))
    for core in node.cores:
        assert core.icache.next_level is core.dcache.next_level
        if core.cid == 0:
            assert core.dcache.next_level is memsys.crossbar
        else:
            skew = core.dcache.next_level
            assert isinstance(skew, AddressSkew)
            assert skew.next_level is memsys.crossbar
            assert skew.offset == core.cid << 28


@pytest.mark.parametrize("n_cores", (1, 2))
def test_only_the_other_cores_misses_go_through_a_skew(n_cores, monkeypatch):
    """A single-core run's misses reach the crossbar with no skew call; a
    two-core run's second core still goes through its skew."""
    skewed = []
    skew_access = AddressSkew.access

    def spy(self, *args):
        skewed.append(self.offset)
        return skew_access(self, *args)

    monkeypatch.setattr(AddressSkew, "access", spy)
    result = run_config(RunConfig(workload="gather", core_type="virec",
                                  n_cores=n_cores, n_threads=4,
                                  n_per_thread=8))
    assert result.correct
    assert set(skewed) == ({1 << 28} if n_cores == 2 else set())


def test_single_element_workload():
    r = run_config(RunConfig(workload="vecadd", core_type="virec",
                             n_threads=1, n_per_thread=1,
                             context_fraction=2.0))
    assert r.correct and r.instructions > 0


def test_many_threads_tiny_work():
    r = run_config(RunConfig(workload="reduction", core_type="virec",
                             n_threads=10, n_per_thread=2,
                             context_fraction=0.5))
    assert r.correct


def test_zero_offload_stagger():
    r = run_config(RunConfig(workload="vecadd", core_type="banked",
                             n_threads=4, n_per_thread=8, offload_stagger=0))
    assert r.correct


def test_dcache_one_kb_extreme():
    """A 1 kB dcache (16 lines) with 8 threads: extreme thrash, must still
    complete correctly."""
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=8, n_per_thread=8, dcache_kb=1,
                             context_fraction=0.6))
    assert r.correct
    assert r.ipc < 0.5  # heavily memory bound


def test_crossbar_latency_monotone():
    fast = run_config(RunConfig(workload="stride", core_type="banked",
                                n_threads=4, n_per_thread=16,
                                crossbar_latency=2))
    slow = run_config(RunConfig(workload="stride", core_type="banked",
                                n_threads=4, n_per_thread=16,
                                crossbar_latency=40))
    assert slow.cycles > fast.cycles
