"""The observational hook surface of the timeline engine, stated once.

A core carries two instrument attributes, each a property whose setter
recompiles the step table (``TimelineCore._recompile_step``):

* ``fault_hook`` — the :class:`~repro.faults.FaultInjector`, called at
  fetch.  It is the one instrument that may move a timestamp (fault
  recovery costs cycles).
* ``observers`` — a tuple of :class:`Observer` instances, dispatched in
  attach order.  Sessions attach with ``core.observers += (sink,)``, and
  they are wired in :data:`repro.subsystems.SUBSYSTEMS` order, so that
  table is the one ordering rule.  Observers never alter a cycle
  timestamp; the noop suites under ``tests/`` hold an observed run
  cycle-identical to a bare one.

The step table (:mod:`repro.isa.compiled`) has two variants per program.
With no fault hook and no observers it contains no instrumentation code
at all; with anything attached it is the *observed* variant, generated
from the same stage templates, which calls the fault hook at fetch and
dispatches the events below.  Both pipeline families say "committed" once,
at one point: after the architectural update and the core's commit hook,
before the thread halts or its pc advances.
"""

from __future__ import annotations

__all__ = ["Observer"]


class Observer:
    """Base class of every sink on a core's ``observers`` tuple.

    Its eight no-op methods are the whole event surface; a sink overrides
    the events it records and needs no core edit.  Cycles are commit-clock
    timestamps; ``tid`` is a thread id.
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
