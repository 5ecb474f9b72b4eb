"""Unit tests for the Backing Store Interface and the sysreg ping-pong buffer."""

import inspect

import pytest

from repro.core.base import TimelineCore
from repro.core.cgmt import ContextLayout
from repro.memory import Cache, CacheConfig
from repro.stats.counters import Stats
from repro.virec.bsi import BackingStoreInterface
from repro.virec.csl import SysRegBuffer

from ..helpers import FixedLatencyBackend, PortModel


def make_bsi(**kw):
    dc = Cache(CacheConfig(name="dc", size_bytes=8 * 1024, assoc=4, latency=2,
                           mshrs=24), FixedLatencyBackend(50), Stats("dc"))
    port = PortModel(dc)
    layout = ContextLayout(used_regs=tuple(range(10)))
    bsi = BackingStoreInterface(port.dcache_request, layout, stats=Stats("bsi"),
                                **kw)
    return bsi, dc, port, layout


def test_port_fake_has_the_real_ports_signature():
    """The BSI calls the port positionally, so a fake whose flags sit in a
    different order would pass the wrong flag without any test noticing."""
    assert (inspect.signature(PortModel.dcache_request)
            == inspect.signature(TimelineCore.dcache_request))


def test_fill_returns_completion_and_pins():
    bsi, dc, port, layout = make_bsi()
    done = bsi.fill(0, tid=0, flat_reg=3)
    assert done > 0
    line = dc.line_state(layout.reg_addr(0, 3))
    assert line.is_reg and line.pin == 1
    assert bsi.stats["fills"] == 1
    assert bsi.busy_until == done


def test_spill_unpins_and_is_posted():
    bsi, dc, port, layout = make_bsi()
    t1 = bsi.fill(0, 0, 3)
    t2 = bsi.spill(t1, 0, 3, dirty=True)
    assert t2 <= t1 + 2  # posted: returns right after issue
    assert dc.line_state(layout.reg_addr(0, 3)).pin == 0
    assert bsi.stats["dirty_spills"] == 1


def test_dummy_fill_is_immediate_but_issues_metadata_txn():
    bsi, dc, port, layout = make_bsi()
    done = bsi.dummy_fill(5, 0, 4)
    assert done == 5  # no latency on the critical path
    assert bsi.stats["dummy_fills"] == 1
    assert len(port.log) == 1  # metadata transaction went to the cache


def test_dummy_fill_disabled_falls_back_to_real_fill():
    bsi, dc, port, layout = make_bsi(dummy_fill_enabled=False)
    done = bsi.dummy_fill(5, 0, 4)
    assert done > 5
    assert bsi.stats["fills"] == 1 and bsi.stats["dummy_fills"] == 0


def test_pinning_disabled_leaves_lines_unpinned():
    bsi, dc, port, layout = make_bsi(pinning_enabled=False)
    bsi.fill(0, 0, 3)
    assert dc.line_state(layout.reg_addr(0, 3)).pin == 0


def test_blocking_bsi_serializes_on_completion():
    blocking, dcb, portb, _ = make_bsi(blocking=True)
    t1 = blocking.fill(0, 0, 0)
    t2 = blocking.fill(0, 0, 63)  # different line -> cold miss again
    assert t2 >= t1  # second issue waited for first completion

    nonblocking, dcn, portn, _ = make_bsi(blocking=False)
    n1 = nonblocking.fill(0, 0, 0)
    n2 = nonblocking.fill(0, 0, 63)
    assert n2 - n1 <= t2 - t1  # pipelined issue at least as fast


def test_registers_pack_eight_per_line():
    bsi, dc, port, layout = make_bsi()
    a0 = layout.reg_addr(0, 0)
    a7 = layout.reg_addr(0, 7)
    a8 = layout.reg_addr(0, 8)
    assert a7 - a0 == 56
    assert a8 // 64 != a0 // 64  # ninth register on the next line


def test_issued_addresses_are_the_layouts():
    """The BSI keeps the layout's address arithmetic as plain ints; every
    register and system-register line of an 8-thread layout must land
    where ``ContextLayout`` puts it."""
    bsi, dc, port, layout = make_bsi()
    for tid in range(8):
        for flat in range(64):
            for op in (bsi.fill, bsi.dummy_fill,
                       lambda t, tid, flat: bsi.spill(t, tid, flat, True)):
                op(0, tid, flat)
                assert port.log[-1][1] == layout.reg_addr(tid, flat)
        for op in (bsi.sysreg_read, bsi.sysreg_write):
            op(0, tid)
            assert port.log[-1][1] == layout.sysreg_addr(tid)
    lo, hi = layout.region(8)
    assert all(lo <= addr < hi for _t, addr, *_ in port.log)
    # every transaction is register traffic, never a demand data load
    assert all(is_register and not is_load_data
               for *_, is_load_data, is_register, _pin in port.log)


def test_sysreg_lines_pin_persistently():
    bsi, dc, port, layout = make_bsi()
    t = bsi.sysreg_read(0, tid=1)
    line = dc.line_state(layout.sysreg_addr(1))
    assert line.pin >= 1
    bsi.sysreg_write(t, tid=1)
    assert dc.line_state(layout.sysreg_addr(1)).pin >= 1  # still pinned


# -- SysRegBuffer ----------------------------------------------------------

def test_sysreg_buffer_prefetch_hit_path():
    bsi, dc, port, layout = make_bsi()
    buf = SysRegBuffer(bsi, n_threads=4, stats=Stats("srb"))
    t0 = buf.switch_to(0, 0)          # cold: demand fetch
    assert buf.stats["demand_fetches"] == 1
    # thread 1 was prefetched during the switch to 0
    t1 = buf.switch_to(1, t0 + 500)
    assert buf.stats["prefetch_hits"] == 1
    assert t1 == t0 + 500             # no extra wait


def test_sysreg_buffer_late_prefetch_costs_cycles():
    bsi, dc, port, layout = make_bsi()
    buf = SysRegBuffer(bsi, n_threads=2, stats=Stats("srb"))
    t0 = buf.switch_to(0, 0)
    t1 = buf.switch_to(1, t0 + 1)     # immediately: prefetch not done yet
    assert t1 > t0 + 1
    assert buf.stats["prefetch_late_cycles"] > 0


def test_sysreg_buffer_writes_back_previous():
    bsi, dc, port, layout = make_bsi()
    buf = SysRegBuffer(bsi, n_threads=3, stats=Stats("srb"))
    buf.switch_to(0, 0)
    buf.switch_to(1, 400)
    assert bsi.stats["sysreg_writes"] >= 1
