"""The observational hook surface of the timeline engine, stated once.

A core carries two instrument attributes, each a property whose setter
recompiles the step table (``TimelineCore._recompile_step``):

* ``fault_hook`` — the :class:`~repro.faults.FaultInjector`, called at
  fetch.  It is the one instrument that may move a timestamp (fault
  recovery costs cycles).  A ViReC core's setter also hands it to its
  VRMU (slot reads) and BSI (register fills).
* ``observers`` — a tuple of :class:`Observer` instances, dispatched in
  attach order.  Sessions attach with ``core.observers += (sink,)``, and
  they are wired in :data:`repro.subsystems.SUBSYSTEMS` order, so that
  table is the one ordering rule.  Observers never alter a cycle
  timestamp; the noop suites under ``tests/`` hold an observed run
  cycle-identical to a bare one.

:class:`Observer` is the one event protocol.  The core dispatches its own
events (schedule, switch, stall, context move, commit, thread done) to
every observer.  The parts a core owns report through the same protocol:
the ``observers`` setter hands each part the observers that override that
part's events (:func:`sinks_for`; an empty tuple when none do) — the
VRMU's register-cache traffic (:data:`REG_EVENTS`, with the per-operand
hit on a tuple of its own), the sysreg buffer's swaps and the dcache's
demand misses — and the fault injector emits through its core's
``observers``.  So a part tests one tuple where it would dispatch,
and a sink that records none of its events costs it nothing.

The step table (:mod:`repro.isa.compiled`) has two variants per program.
With no fault hook and no observers it contains no instrumentation code
at all; with anything attached it is the *observed* variant, generated
from the same stage templates, which calls the fault hook at fetch and
dispatches the core's events.  Both pipeline families say "committed"
once, at one point: after the architectural update and the core's commit
hook, before the thread halts or its pc advances.
"""

from __future__ import annotations

__all__ = ["Observer", "REG_EVENTS", "sinks_for"]


class Observer:
    """Base class of every sink on a core's ``observers`` tuple.

    Its no-op methods are the whole event surface; a sink overrides the
    events it records and needs no core edit.  Cycles are commit-clock
    timestamps (the part events: the part's own clock at the event);
    ``tid`` is a thread id and ``reg`` a flat architectural register.
    """

    __slots__ = ()

    def on_schedule(self, tid: int, t_req: int, t_sched: int) -> None:
        """A switch requested at ``t_req`` picked thread ``tid`` at
        ``t_sched`` (``t_sched > t_req``: the core idled for a runnable
        thread)."""

    def on_switch_in(self, tid: int, t: int, t_fetch: int) -> None:
        """Thread ``tid``'s run begins at ``t``; context restore done, its
        first instruction can be fetched at ``t_fetch``."""

    def on_switch(self, tid: int, t_req: int, t_sw: int, ready_at: int,
                  flushed: int) -> None:
        """Thread ``tid`` switched out on a demand-load miss: requested at
        ``t_req``, held by posted spills until ``t_sw``, ``flushed``
        instructions squashed; the miss returns at ``ready_at``."""

    def on_stall(self, tid: int, t: int, until: int, cause: str) -> None:
        """Thread ``tid`` stalled in place ``(t, until]`` (a masked
        switch)."""

    def on_context_move(self, kind: str, tid: int, t: int,
                        done: int) -> None:
        """Context-storage traffic ``kind`` (``ctx_fetch`` / ``ctx_save`` /
        ``ctx_restore``) for thread ``tid`` over ``(t, done]``."""

    def on_spill_window(self, tid: int, t_to: int) -> None:
        """Software context-save traffic ahead of ``tid``'s restore
        finished at ``t_to``."""

    def on_commit(self, thread, d, t_d: int, t_ops: int, t_regs: int,
                  t_issue: int, t_ex_done: int, data_at: int, t_c: int,
                  icache_missed: bool, load_missed: bool) -> None:
        """One instruction committed at ``t_c`` (a HALT included:
        ``d.is_halt``).

        ``d`` is its :class:`~repro.isa.decoded.DecodedOp`; ``thread``
        holds the committed architectural state and the instruction's own
        pc.  The stage bounds are decode entry
        ``t_d``, operand readiness ``t_ops``, register residency
        ``t_regs``, issue ``t_issue``, execute done ``t_ex_done`` and data
        ready ``data_at``.  The barrel core has no decode stage: it passes
        ``t_d = t_issue - 1``, ``t_ops = t_regs = t_issue`` and
        ``icache_missed = False``.
        """

    def on_thread_done(self, tid: int, t_c: int) -> None:
        """Thread ``tid`` committed its HALT at ``t_c``."""

    # -- the parts' events (see the module docstring) ------------------------
    def on_reg_hit(self, tid: int, reg: int, t: int) -> None:
        """Decode at ``t`` found ``tid``'s ``reg`` resident (per operand)."""

    def on_reg_miss(self, tid: int, reg: int, t: int) -> None:
        """Decode at ``t`` found ``tid``'s ``reg`` not resident."""

    def on_reg_evict(self, slot: int, tid: int, cause: str, t: int) -> None:
        """Register-cache ``slot`` is evicted at ``t`` on behalf of ``tid``.

        ``cause`` is ``capacity`` (``tid`` displaced its own register),
        ``thread`` (another thread's), ``group`` (a group eviction's extra
        victim), ``prefetch`` (a context prefetch) or ``task-drop`` (a
        finished task's register, dropped unspilled).  Dispatched before
        the tag store drops the slot: its cells still hold the victim.
        """

    def on_reg_fill(self, tid: int, reg: int, t: int, done: int,
                    dummy: bool = False) -> None:
        """A fill of ``tid``'s ``reg`` issued at ``t`` is ready at ``done``
        (``dummy``: a destination-only register, no data moved)."""

    def on_reg_insert(self, slot: int, tid: int, reg: int, t: int) -> None:
        """``tid``'s ``reg`` took register-cache ``slot`` at ``t``."""

    def on_reg_spill(self, tid: int, reg: int, dirty: bool, t: int) -> None:
        """An evicted register of ``tid`` was written back at ``t``."""

    def on_sysreg(self, kind: str, tid: int, t: int) -> None:
        """The sysreg ping-pong buffer swapped ``tid`` in at ``t``: a
        ``demand`` fetch, a ``prefetch-hit`` or a ``prefetch-late``."""

    def on_dcache_miss(self, now: int, addr: int, is_write: bool,
                       fill_done: int, is_register: bool) -> None:
        """A dcache demand miss at ``now`` fills by ``fill_done``
        (``is_register``: register backing-store traffic)."""

    def on_fault(self, site: str, t: int) -> None:
        """The fault injector flipped a bit in a ``site`` (``rf`` /
        ``tag`` / ``backing``) at ``t``."""


#: the VRMU's events but the per-operand hit, which has a tuple of its own
#: (the ViReC core dispatches a dropped task's evictions to the same sinks)
REG_EVENTS = ("on_reg_miss", "on_reg_evict", "on_reg_fill",
              "on_reg_insert", "on_reg_spill")


def sinks_for(observers, *events) -> tuple:
    """The ``observers``, in order, whose class overrides any of
    ``events`` (``Observer`` method names)."""
    return tuple(observer for observer in observers
                 if any(getattr(type(observer), event, None)
                        not in (None, getattr(Observer, event))
                        for event in events))
