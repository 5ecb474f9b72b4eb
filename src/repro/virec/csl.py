"""Context Switching Logic helpers (Section 5.2).

The trigger/mask structure of the CSL is implemented across the core:

1. *dcache data-miss trigger* — raised by the cache model
   (:meth:`repro.memory.cache.Cache.access` ``switch_signal``);
2. *oldest-in-flight-is-not-memory mask* — a pending switch waits for older
   long-latency instructions to commit (the timeline core's ``commit_tail``
   bound is exactly this);
3. *BSI-busy mask* — no switch during an outstanding register fill
   (:attr:`repro.virec.bsi.BackingStoreInterface.busy_until`);
4. *forward-progress mask* — at least one commit since the last switch.

This module implements the remaining piece: the **system-register
ping-pong buffer** that prefetches the next thread's system registers while
the current thread runs, overlapping the pipeline warmup (Section 5.2).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.counters import Stats
from .bsi import BackingStoreInterface


#: cells of the buffer's :meth:`Stats.batch`, in ``__init__``'s key order
PREFETCH_HITS, DEMAND_FETCHES, PREFETCHES = range(3)


class SysRegBuffer:
    """Double buffer holding the current and next threads' system registers."""

    def __init__(self, bsi: BackingStoreInterface, n_threads: int,
                 stats: Optional[Stats] = None) -> None:
        self.bsi = bsi
        self.n_threads = n_threads
        self.stats = stats if stats is not None else Stats("sysreg")
        #: per-switch pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch(
            "prefetch_hits", "demand_fetches", "prefetches")
        self._ready: Dict[int, int] = {}  # tid -> prefetch completion cycle
        self._prev_tid: Optional[int] = None
        #: the observers of the buffer's swaps
        #: (:meth:`~repro.core.instrument.Observer.on_sysreg`), handed over
        #: by the owning core; purely observational
        self.sinks = ()

    def switch_to(self, tid: int, t: int) -> int:
        """Perform the buffer swap for a switch to ``tid`` at cycle ``t``.

        Returns the cycle the new thread's system registers are usable.
        In parallel, the previous thread's buffer is written back and the
        *next* round-robin thread's system registers are prefetched — both
        overlap the pipeline refill.
        """
        pending = self._pending
        prefetched = self._ready.pop(tid, None)
        if prefetched is None:
            ready = self.bsi.sysreg_read(t, tid)  # demand fetch (cold)
            pending[DEMAND_FETCHES] += 1
        elif prefetched > t:
            ready = prefetched
            self.stats.inc("prefetch_late_cycles", ready - t)
        else:
            ready = t
            pending[PREFETCH_HITS] += 1
        if self.sinks:
            kind = ("demand" if prefetched is None else
                    "prefetch-late" if ready > t else "prefetch-hit")
            for sink in self.sinks:
                sink.on_sysreg(kind, tid, t)

        if self._prev_tid is not None and self._prev_tid != tid:
            self.bsi.sysreg_write(ready, self._prev_tid)
        self._prev_tid = tid

        nxt = (tid + 1) % self.n_threads
        if nxt != tid and nxt not in self._ready:
            self._ready[nxt] = self.bsi.sysreg_read(ready, nxt)
            pending[PREFETCHES] += 1
        return ready
