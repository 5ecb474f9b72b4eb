"""Coarse-grain multithreaded (CGMT) cores with conventional context storage.

:class:`TimelineCore` already implements the CGMT control flow the paper
describes in Section 3 — detect a demand-load dcache miss, flush the
pipeline, and round-robin to the next ready thread.  The classes here model
the *context storage* alternatives of Figure 3:

* :class:`BankedCore` — one full register bank per thread (Figure 3b).
  Switches cost only the pipeline refill; the initial context is fetched
  from the per-thread reserved memory region once, when the thread first
  runs (the task-offload path of Section 6).
* :class:`SoftwareSwitchCore` — a single register bank; every switch
  executes a software save/restore sequence through the dcache (Figure 3a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..memory.main_memory import LINE_BYTES, WORD_BYTES
from .base import CoreConfig, ThreadContext, TimelineCore


@dataclass(frozen=True)
class ContextLayout:
    """Addresses of the per-thread context save area (reserved region).

    Each thread owns a full 64-register slot area (8 lines, by flat register
    index, so the registers a kernel actually uses — low ``x`` numbers —
    cluster into few lines) plus one line of system registers.  Only the
    lines containing ``used_regs`` are ever touched, which reproduces the
    paper's "between 2 and 4 cache lines ... general and system registers"
    footprint (Section 6.1).
    """

    base: int = 0x8000_0000
    used_regs: tuple = tuple(range(10))  # flat indices the workload touches

    GP_LINES = 8   # 64 registers x 8 bytes / 64-byte lines
    bytes_per_thread = (GP_LINES + 1) * LINE_BYTES  # +1 sysreg line

    @property
    def touched_gp_lines(self) -> tuple:
        """Line offsets (within the thread area) the used registers occupy."""
        return tuple(sorted({r // 8 for r in self.used_regs}))

    @property
    def fetch_offsets(self) -> tuple:
        """Offsets in the thread area of the touched and sysreg lines."""
        return tuple(line * LINE_BYTES
                     for line in self.touched_gp_lines + (self.GP_LINES,))

    def reg_addr(self, tid: int, flat_reg: int) -> int:
        """Backing address of architectural register ``flat_reg`` of ``tid``."""
        return self.base + tid * self.bytes_per_thread + flat_reg * WORD_BYTES

    def sysreg_addr(self, tid: int) -> int:
        return self.base + tid * self.bytes_per_thread + self.GP_LINES * LINE_BYTES

    def region(self, n_threads: int) -> tuple:
        """Byte range ``[lo, hi)`` of the whole register region."""
        return (self.base, self.base + n_threads * self.bytes_per_thread)


class BankedCore(TimelineCore):
    """CGMT core with a statically banked register file (Figure 3b)."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("config", CoreConfig(name="banked", switch_on_miss=True))
        super().__init__(*args, **kwargs)
        self.layout = self.layout or ContextLayout()
        if len(self.threads) > 8:
            raise ValueError("banked core supports at most 8 thread banks (Table 1)")
        self._offsets = self.layout.fetch_offsets

    def thread_start_cost(self, thread: ThreadContext, t: int) -> int:
        """Fetch the complete offloaded context into the thread's bank."""
        layout = self.layout
        done = self.dcache_stream(
            t, layout.base + thread.tid * layout.bytes_per_thread,
            self._offsets)[1]
        self.stats.inc("context_fetches")
        for observer in self._on_context_move:
            observer.on_context_move("ctx_fetch", thread.tid, t, done)
        return done


class SoftwareSwitchCore(TimelineCore):
    """CGMT core that saves/restores contexts in software (Figure 3a)."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("config", CoreConfig(name="swctx", switch_on_miss=True))
        super().__init__(*args, **kwargs)
        self.layout = self.layout or ContextLayout()
        self._prev_thread: Optional[ThreadContext] = None
        #: word offsets, within a thread's save area, of the moved registers
        self._offsets = tuple(flat * WORD_BYTES for flat in self.layout.used_regs)

    def switch_in(self, thread: ThreadContext, t: int) -> int:
        """Execute the save (previous thread) + restore (new thread) sequence.

        Each register moves with an ordinary store/load through the dcache
        port, one issue per cycle; execution resumes only after the last
        restore load returns (the delay "can exceed memory latency",
        Section 3).
        """
        done = t
        base, stride = self.layout.base, self.layout.bytes_per_thread
        offsets = self._offsets
        if self._prev_thread is not None and self._prev_thread is not thread:
            done = self.dcache_stream(t, base + self._prev_thread.tid * stride,
                                      offsets, is_write=True)[0]
            self.stats.inc("context_saves")
            for observer in self._on_context_move:
                observer.on_context_move(
                    "ctx_save", self._prev_thread.tid, t, done)
            # the save phase is the software analogue of a register spill
            # writeback; the restore phase stays in "switch"
            for observer in self._on_spill_window:
                observer.on_spill_window(thread.tid, done)
        restore_done = self.dcache_stream(done, base + thread.tid * stride,
                                          offsets)[1]
        self.stats.inc("context_restores")
        for observer in self._on_context_move:
            observer.on_context_move("ctx_restore", thread.tid, done,
                                     restore_done)
        self._prev_thread = thread
        return restore_done + self.config.switch_refill


def make_threads(n: int, entry_pc: int = 0,
                 init_regs: Optional[List[dict]] = None) -> List[ThreadContext]:
    """Create ``n`` thread contexts starting at ``entry_pc``.

    ``init_regs[i]`` optionally maps :class:`~repro.isa.registers.Reg` to
    initial values (the offloaded context, e.g. thread id in ``x0``).
    """
    threads = []
    for tid in range(n):
        th = ThreadContext(tid=tid, pc=entry_pc)
        if init_regs and tid < len(init_regs):
            for reg, value in init_regs[tid].items():
                th.write(reg, value)
        threads.append(th)
    return threads
