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

from typing import Dict, List, Optional, Sequence

from ..stats.counters import Stats
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

    _name = "prefetch"

    def transfer_regs(self, thread: ThreadContext) -> Sequence[int]:
        """Flat register indices moved for ``thread`` on each switch."""
        raise NotImplementedError

    def _issue_loads(self, t: int, tid: int, regs: Sequence[int]) -> int:
        done = t
        for i, flat in enumerate(regs):
            done = max(done, self.dcache_request(
                t + i, self.layout.reg_addr(tid, flat))[1])
        return done

    def _issue_stores(self, t: int, tid: int, regs: Sequence[int]) -> int:
        for i, flat in enumerate(regs):
            self.dcache_request(t + i, self.layout.reg_addr(tid, flat),
                                is_write=True)
        return t + len(regs)

    def switch_in(self, thread: ThreadContext, t: int) -> int:
        ready = self._bank_ready.pop(thread.tid, None)
        if ready is None:
            # prediction miss or cold start: demand-fetch the whole set
            ready = self._issue_loads(t, thread.tid, self.transfer_regs(thread))
            self.stats.inc("demand_context_fetches")
        else:
            self.stats.inc("prefetched_switches")
            if ready > t:
                self.stats.inc("prefetch_late_cycles", ready - t)
        t0 = max(t, ready)

        # store the outgoing thread's registers (posted, occupies the port)
        t_next = t0
        if self._prev is not None and self._prev is not thread:
            t_next = self._issue_stores(t0, self._prev.tid,
                                        self.transfer_regs(self._prev))
        self._prev = thread

        # prefetch the round-robin successor into the idle bank
        n = len(self.threads)
        nxt = self.threads[(thread.tid + 1) % n]
        if n > 1 and nxt.tid not in self._bank_ready:
            self._bank_ready[nxt.tid] = self._issue_loads(
                t_next, nxt.tid, self.transfer_regs(nxt))
            self.stats.inc("prefetches")
        return t0 + self.config.switch_refill


class FullContextPrefetchCore(_PrefetchCoreBase):
    """Prefetch the complete architectural context on every switch."""

    _name = "prefetch-full"

    def transfer_regs(self, thread: ThreadContext) -> Sequence[int]:
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
        super().__init__(*args, **kwargs)
        self.active_regs: List[int] = sorted(
            active_regs if active_regs is not None else self.layout.used_regs)

    def transfer_regs(self, thread: ThreadContext) -> Sequence[int]:
        return self.active_regs
