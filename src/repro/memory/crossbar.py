"""System crossbar connecting near-memory processors to the memory controller.

The paper attaches each NDP "to the system crossbar near the memory
controller" (Section 6).  The crossbar adds a fixed traversal latency and
serializes requests on a shared issue port, which is what creates the
observed-latency growth with system activity in Figure 11.
"""

from __future__ import annotations

from ..stats.counters import Stats


#: cells of the crossbar's :meth:`Stats.batch`, in the order ``__init__``
#: names the keys
REQUESTS, QUEUE_CYCLES = range(2)


class Crossbar:
    """Fixed-latency, bandwidth-limited interconnect in front of ``next_level``."""

    def __init__(self, next_level, latency: int = 6, requests_per_cycle: int = 1,
                 stats: Stats | None = None) -> None:
        self.next_level = next_level
        self.latency = latency
        self.requests_per_cycle = requests_per_cycle
        self.stats = stats if stats is not None else Stats("crossbar")
        #: per-request pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch("requests", "queue_cycles")
        self._slot_free = 0  # next cycle with an available issue slot
        self._slots_used = 0

    def access(self, now: int, line_addr: int, is_write: bool = False,
               requestor: int = 0) -> int:
        """Forward one line request; returns the downstream completion cycle."""
        start = now if now > self._slot_free else self._slot_free
        self._slots_used += 1
        if self._slots_used >= self.requests_per_cycle:
            self._slot_free = start + 1
            self._slots_used = 0
        pending = self._pending
        pending[REQUESTS] += 1
        pending[QUEUE_CYCLES] += start - now
        return self.next_level.access(start + self.latency, line_addr,
                                      is_write, requestor)
