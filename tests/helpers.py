"""Shared test harness: builds kernels + cores over a simple memory stack."""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Tuple

import numpy as np

from repro.core.cgmt import ContextLayout, make_threads
from repro.isa import X, assemble
from repro.memory import Cache, CacheBusy, CacheConfig, MainMemory
from repro.stats.counters import Stats


@contextmanager
def time_limit(seconds: float = 120.0):
    """Fail a test that runs longer than ``seconds`` (no pytest-timeout dep).

    SIGALRM-based, so it only guards on the main thread of a POSIX run;
    elsewhere it is a no-op.
    """
    usable = (hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _expire(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds}s time limit")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class FixedLatencyBackend:
    """Constant-latency memory behind the L1s (keeps unit tests deterministic)."""

    def __init__(self, latency: int = 80):
        self.latency = latency
        self.accesses = []

    def access(self, now, line_addr, is_write=False, requestor=0):
        self.accesses.append((now, line_addr, is_write))
        return now + self.latency


class PortModel:
    """``TimelineCore.dcache_request`` over a bare dcache, for driving a BSI
    without a core: the same signature (a test holds them equal), the same
    ``(t_issue, complete_at, hit, switch_signal)`` reply, refusals retried
    the same way.  Every accepted transaction is logged as ``(t_issue,
    addr, is_write, is_load_data, is_register, pin_delta)``."""

    def __init__(self, dcache: Cache) -> None:
        self.dcache = dcache
        self.dcache_port_free = 0
        self.log = []

    def dcache_request(self, t: int, addr: int, is_write: bool = False,
                       is_load_data: bool = False, is_register: bool = False,
                       pin_delta: int = 0) -> Tuple[int, int, bool, bool]:
        while True:
            t_issue = max(t, self.dcache_port_free)
            self.dcache_port_free = t_issue + 1
            try:
                done, hit, switch = self.dcache.access(
                    t_issue, addr, is_write, 0, is_load_data, is_register,
                    pin_delta)
            except CacheBusy as busy:
                t = max(busy.retry_at, t_issue + 1)
                continue
            self.log.append((t_issue, addr, is_write, is_load_data,
                             is_register, pin_delta))
            return t_issue, done, hit, switch


GATHER_SRC = """
start:
    ; x0 = tid, chunk/idx/data/out are symbols
    mov  x2, #chunk
    mul  x3, x0, x2        ; i = tid * chunk
    add  x4, x3, x2        ; end
    adr  x5, idx
    adr  x6, data
    adr  x7, out
loop:
    ldr  x8, [x5, x3, lsl #3]
    ldr  x9, [x6, x8, lsl #3]
    str  x9, [x7, x3, lsl #3]
    add  x3, x3, #1
    cmp  x3, x4
    b.lt loop
    halt
"""

#: flat indices of the registers the gather kernel touches (x0, x2..x9)
GATHER_REGS = (0, 2, 3, 4, 5, 6, 7, 8, 9)


def build_gather_core(core_cls, n_threads=4, n=64, mem_latency=80, seed=1,
                      dcache_kb=8, data_n=4096, **core_kw):
    """Assemble the gather kernel, build a core of ``core_cls``, return
    ``(core, mem, symbols, expected_output)``."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data_n, size=n)
    data = rng.integers(0, 1 << 30, size=data_n)
    mem = MainMemory()
    sym = {"idx": 0x100000, "data": 0x200000, "out": 0x300000,
           "chunk": max(1, n // n_threads)}
    mem.write_array(sym["idx"], idx)
    mem.write_array(sym["data"], data)
    prog = assemble(GATHER_SRC, symbols=sym)
    backend = FixedLatencyBackend(mem_latency)
    ic = Cache(CacheConfig(name="ic", size_bytes=32 * 1024, assoc=4, latency=2),
               backend, Stats("ic"))
    dc = Cache(CacheConfig(name="dc", size_bytes=dcache_kb * 1024, assoc=4,
                           latency=2, mshrs=24), backend, Stats("dc"))
    init = [{X(0): t, X(1): n_threads} for t in range(n_threads)]
    threads = make_threads(n_threads, init_regs=init)
    core_kw.setdefault("layout", ContextLayout(used_regs=GATHER_REGS))
    core = core_cls(prog, ic, dc, mem, threads, **core_kw)
    expected = [int(data[i]) for i in idx]
    return core, mem, sym, expected
