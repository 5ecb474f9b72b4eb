"""Backing Store Interface (BSI): register fills and spills (Section 5.3).

The BSI sits in the execute stage and moves registers between the physical
register file and the dcache backing store through the shared LSQ/BSI port
(the arbiter always prioritizes demand LSQ requests; here the core's
``dcache_request`` serializes the port, and the VRMU issues latency-critical
fills before posted spills).

Implemented optimizations from the paper:

* **register-line pinning** — fills carry ``pin_delta=+1``, spills ``-1``,
  driving the dcache's 3-bit per-line pin counters;
* **dummy fill** — a destination-only register needs no old value: the RF
  gets a dummy value immediately and only a posted metadata transaction is
  sent, removing backing-store latency from the critical path;
* **non-blocking mode** — multiple pipelined requests in flight (one issue
  per cycle); the blocking variant serializes on completion (the
  area-efficient option the paper describes and we use for the NSF baseline).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.cgmt import ContextLayout
from ..memory.main_memory import LINE_BYTES, WORD_BYTES
from ..stats.counters import Stats

#: cells of the BSI's :meth:`Stats.batch`, in the order ``__init__`` names
#: the keys
FILLS, FILL_BACKING_MISSES, DUMMY_FILLS, SPILLS, DIRTY_SPILLS = range(5)


class BackingStoreInterface:
    """Fill/spill engine between the register cache and the dcache."""

    def __init__(self, request_fn: Callable, layout: ContextLayout, *,
                 blocking: bool = False, dummy_fill_enabled: bool = True,
                 pinning_enabled: bool = True,
                 unpin_fn: Optional[Callable[[int], bool]] = None,
                 stats: Optional[Stats] = None) -> None:
        #: the port: ``request(t, addr, is_write=, is_register=, pin_delta=)``
        #: -> ``(t_issue, result)``; blocking mode serializes on completion
        self._port = request_fn
        self.request = self._serialized if blocking else request_fn
        self.layout = layout
        # ``layout.reg_addr`` / ``sysreg_addr`` as plain ints: thread ``tid``'s
        # area starts at base + tid * stride; register ``flat`` sits
        # flat * WORD_BYTES into it, the system registers after the GP lines
        self._base = layout.base
        self._stride = layout.bytes_per_thread
        self._sysreg_offset = layout.GP_LINES * LINE_BYTES
        #: metadata-only pin release (no port transaction) used by
        #: :meth:`elide_spill`; optional because only dead-hint policies
        #: ever elide
        self.unpin = unpin_fn
        self.blocking = blocking
        self.dummy_fill_enabled = dummy_fill_enabled
        self.pinning_enabled = pinning_enabled
        #: what a fill adds to (and a spill takes off) its line's pin count
        self._pin = 1 if pinning_enabled else 0
        self.stats = stats if stats is not None else Stats("bsi")
        #: per-transaction pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch(
            "fills", "fill_backing_misses", "dummy_fills", "spills",
            "dirty_spills")
        #: cycle until which a fill/spill is outstanding (CSL mask input)
        self.busy_until = 0
        #: port horizon contributed by spill transactions only — lets the
        #: profiler attribute spill-induced fill delays to spill_writeback
        self.spill_busy_until = 0
        #: fill-issue cycles lost to spill port occupancy since the VRMU
        #: last reset it (accumulated per instruction, purely observational)
        self.fill_spill_wait = 0
        self._next_issue = 0  # blocking-mode serialization
        #: optional :class:`~repro.faults.FaultInjector` probing backing-store
        #: lines on every register fill (strictly opt-in)
        self.fault_hook = None

    def _serialized(self, t: int, addr: int, **flags):
        """Blocking-mode port: one transaction at a time."""
        t_issue, result = self._port(max(t, self._next_issue), addr, **flags)
        self._next_issue = result.complete_at
        return t_issue, result

    # -- operations ------------------------------------------------------------
    def fill(self, t: int, tid: int, flat_reg: int) -> int:
        """Load a register from the backing store; returns data-ready cycle."""
        t_issue, result = self.request(
            t, self._base + tid * self._stride + flat_reg * WORD_BYTES,
            is_write=False, is_register=True, pin_delta=self._pin)
        if t_issue > t and self.spill_busy_until > t:
            held = min(self.spill_busy_until, t_issue) - t
            self.fill_spill_wait += held
            self.stats.inc("spill_port_wait_cycles", held)
        pending = self._pending
        pending[FILLS] += 1
        if not result.hit:
            pending[FILL_BACKING_MISSES] += 1
        done = result.complete_at
        if self.fault_hook is not None:
            done = self.fault_hook.on_fill(
                tid, flat_reg, self.layout.reg_addr(tid, flat_reg), t, done)
        if done > self.busy_until:
            self.busy_until = done
        return done

    def dummy_fill(self, t: int, tid: int, flat_reg: int) -> int:
        """Destination-only register: dummy value now, metadata txn posted."""
        if not self.dummy_fill_enabled:
            return self.fill(t, tid, flat_reg)
        self.request(
            t, self._base + tid * self._stride + flat_reg * WORD_BYTES,
            is_write=False, is_register=True, pin_delta=self._pin)
        self._pending[DUMMY_FILLS] += 1
        # metadata transaction is off the critical path; RF writable now
        return t

    def spill(self, t: int, tid: int, flat_reg: int, dirty: bool) -> int:
        """Write an evicted register back to the backing store (posted)."""
        t_issue, _ = self.request(
            t, self._base + tid * self._stride + flat_reg * WORD_BYTES,
            is_write=True, is_register=True, pin_delta=-self._pin)
        pending = self._pending
        pending[SPILLS] += 1
        if dirty:
            pending[DIRTY_SPILLS] += 1
        done = t_issue + 1
        if done > self.busy_until:
            self.busy_until = done
        if done > self.spill_busy_until:
            self.spill_busy_until = done
        return done

    def elide_spill(self, t: int, tid: int, flat_reg: int) -> int:
        """Skip the writeback of a dead register (compiler-assisted elision).

        The value can never be read again, so no data moves: the only
        action is releasing the backing line's pin, modelled as free
        metadata (piggybacked on the eviction message rather than a port
        transaction).  Returns ``t`` — nothing occupies the port.
        """
        self.stats.inc("elided_spills")
        if self.pinning_enabled and self.unpin is not None:
            self.unpin(self.layout.reg_addr(tid, flat_reg))
        return t

    def sysreg_read(self, t: int, tid: int) -> int:
        """Prefetch a thread's system-register line (ping-pong buffer).

        System-register lines are pinned alongside the general-purpose
        register lines (Section 6.1: "each thread uses between 2 and 4 cache
        lines to store their general and system registers ... these lines
        are pinned so they cannot be evicted"); the saturating counter makes
        the pin persistent across the read/write ping-pong."""
        _, result = self.request(
            t, self._base + tid * self._stride + self._sysreg_offset,
            is_write=False, is_register=True, pin_delta=self._pin)
        self.stats.inc("sysreg_reads")
        return result.complete_at

    def sysreg_write(self, t: int, tid: int) -> int:
        """Write back the previous thread's system registers (posted)."""
        t_issue, _ = self.request(
            t, self._base + tid * self._stride + self._sysreg_offset,
            is_write=True, is_register=True, pin_delta=0)
        self.stats.inc("sysreg_writes")
        return t_issue + 1
