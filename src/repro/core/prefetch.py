"""Register-file prefetching cores (the double-buffer alternative of Fig. 9).

Two register banks are used as a ping-pong pair: while a thread executes out
of one bank, the prefetch engine stores the outgoing thread's registers to
memory and loads the predicted-next thread's registers into the other bank
(cf. LTRF-style prefetching [45], adapted to the CGMT schedule).

Two strategies from Section 6.1:

* :class:`FullContextPrefetchCore` — moves the *complete* architectural
  context (all 32 integer + any used FP registers) on every switch; the
  paper shows this is almost always worse than caching because run segments
  between switches can be as short as ~15 cycles.
* :class:`ExactPrefetchCore` — an *oracle* that moves only the registers the
  thread will actually use in its next run segment (its inner-loop active
  set).  Beats ViReC only under the heaviest register-cache contention.

Prediction: the engine prefetches for the strict round-robin successor.  If
the scheduler picks a different (e.g. earlier-woken) thread, its context is
demand-fetched at full cost — the natural penalty of misprediction.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..memory.main_memory import WORD_BYTES
from .base import CoreConfig, ThreadContext, TimelineCore
from .cgmt import ContextLayout


class _PrefetchCoreBase(TimelineCore):
    """Common double-buffer machinery; subclasses define the register set."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("config", CoreConfig(name=self._name, switch_on_miss=True))
        super().__init__(*args, **kwargs)
        self.layout = self.layout or ContextLayout()
        self._bank_ready: Dict[int, int] = {}
        self._prev: Optional[ThreadContext] = None
        #: word offsets, within a thread's save area, of the moved registers
        self._offsets = tuple(flat * WORD_BYTES for flat in self.transfer_regs())

    _name = "prefetch"

    def transfer_regs(self) -> Sequence[int]:
        """Flat register indices every switch moves (read at construction)."""
        raise NotImplementedError

    def switch_in(self, thread: ThreadContext, t: int) -> int:
        base, stride = self.layout.base, self.layout.bytes_per_thread
        offsets = self._offsets
        ready = self._bank_ready.pop(thread.tid, None)
        if ready is None:
            # prediction miss or cold start: demand-fetch the whole set
            ready = self.dcache_stream(t, base + thread.tid * stride, offsets)[1]
            self.stats.inc("demand_context_fetches")
        else:
            self.stats.inc("prefetched_switches")
            if ready > t:
                self.stats.inc("prefetch_late_cycles", ready - t)
        t0 = max(t, ready)

        # store the outgoing thread's registers (posted, occupies the port)
        t_next = t0
        if self._prev is not None and self._prev is not thread:
            self.dcache_stream(t0, base + self._prev.tid * stride, offsets,
                               is_write=True)
            t_next = t0 + len(offsets)
        self._prev = thread

        # prefetch the round-robin successor into the idle bank
        n = len(self.threads)
        nxt = self.threads[(thread.tid + 1) % n]
        if n > 1 and nxt.tid not in self._bank_ready:
            self._bank_ready[nxt.tid] = self.dcache_stream(
                t_next, base + nxt.tid * stride, offsets)[1]
            self.stats.inc("prefetches")
        return t0 + self.config.switch_refill


class FullContextPrefetchCore(_PrefetchCoreBase):
    """Prefetch the complete architectural context on every switch."""

    _name = "prefetch-full"

    def transfer_regs(self) -> Sequence[int]:
        # the full bank: all 32 integer registers plus any used FP registers
        fp_used = sorted(r for r in self.layout.used_regs if r >= 32)
        return list(range(32)) + fp_used


class ExactPrefetchCore(_PrefetchCoreBase):
    """Oracle prefetch of exactly the next run segment's register set.

    ``active_regs`` (flat indices) is the inner-loop working set; the paper's
    oracle knows the "exact needed context" ahead of time.  Real hardware
    would need per-thread metadata storage to approximate this, which is why
    the paper notes it caps thread scalability.
    """

    _name = "prefetch-exact"

    def __init__(self, *args, active_regs: Optional[Sequence[int]] = None,
                 **kwargs) -> None:
        self.active_regs = active_regs
        super().__init__(*args, **kwargs)

    def transfer_regs(self) -> Sequence[int]:
        regs = self.active_regs
        return sorted(regs if regs is not None else self.layout.used_regs)
