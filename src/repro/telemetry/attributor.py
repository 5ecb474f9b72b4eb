"""Top-down cycle attribution off the timeline engine's stage timestamps.

The engine computes, for every committed instruction, the exact cycle each
pipeline stage released it: decode entry ``t_d``, operand readiness
``t_ops``, register residency ``t_regs`` (the VRMU hook), execute
completion ``t_ex_done``, data availability ``data_at``, and the in-order
commit cycle ``t_c``.  Those bounds are monotone non-decreasing, and
``t_c = max(prev_commit + 1, data_at)``, so the half-open commit-clock
interval ``(prev_commit, t_c]`` can be tiled *exactly* by a clamped cursor
walk over the bounds — each sub-interval charged to the stage that was the
binding constraint there.  Summed over all commits the attribution covers
``commit_tail`` with no gaps and no overlaps, which is the hard invariant
:meth:`CycleAttributor.verify` enforces:
``sum(per-cause cycles) == core cycles``, always, on every core type.

Cycles outside any instruction (scheduler drain, idle waits for a runnable
thread, context-switch overhead, BSI-busy holds, software save/restore)
arrive as *pending boundary markers* posted by the scheduler events
(``on_schedule`` / ``on_switch_in`` / ``on_switch`` / ``on_spill_window``
of :class:`~repro.core.instrument.Observer`); they are consumed at the next
commit, charged to the sentinel PC :data:`SCHEDULER_PC`.

This is the top-down accounting style of the GPGPU register-file-cache
characterization literature, applied to the paper's Figure 9/10 question:
*which* cause the banked/swctx/virec gap comes from (switch overhead,
spill writebacks, VRMU refills), not just that it exists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.fgmt import FGMTCore
from ..core.instrument import Observer
from ..errors import AttributionError

__all__ = ["CAUSES", "CycleAttributor", "SAMPLE_CYCLES", "SCHEDULER_PC"]

#: the exhaustive taxonomy, in display order.  Every commit-clock cycle of
#: a run lands in exactly one bucket.
CAUSES = (
    "retire",           # the commit slot itself (1 cycle per instruction)
    "frontend",         # fetch/decode occupancy, redirect bubbles
    "icache_miss",      # fetch held by an icache miss
    "dependency",       # operand/flag scoreboard wait
    "vrmu_refill",      # register residency wait (VRMU fill port, Fig 10)
    "spill_writeback",  # spill-held register port / BSI-busy switch hold
                        # / software context save
    "execute",          # EX pipe occupancy + latency
    "load_hit",         # dcache-hit load latency
    "load_miss",        # dcache-miss load latency exposed at commit
    "store_queue",      # store-queue-full backpressure
    "switch",           # context-switch drain/flush/refill/restore
    "idle",             # no runnable thread (offload stagger, all blocked)
)

_INDEX = {name: i for i, name in enumerate(CAUSES)}
_RETIRE = _INDEX["retire"]
_FRONTEND = _INDEX["frontend"]
_ICACHE_MISS = _INDEX["icache_miss"]
_DEPENDENCY = _INDEX["dependency"]
_VRMU_REFILL = _INDEX["vrmu_refill"]
_SPILL_WRITEBACK = _INDEX["spill_writeback"]
_EXECUTE = _INDEX["execute"]
_LOAD_HIT = _INDEX["load_hit"]
_LOAD_MISS = _INDEX["load_miss"]
_STORE_QUEUE = _INDEX["store_queue"]
_SWITCH = _INDEX["switch"]
_IDLE = _INDEX["idle"]

#: sentinel PC for cycles spent outside any instruction (scheduler time)
SCHEDULER_PC = -1

#: counter-track sample period in commit-clock cycles: the running totals
#: are sampled at the first commit at or past each multiple
SAMPLE_CYCLES = 512


class CycleAttributor(Observer):
    """Per-core observer: classifies every commit-clock cycle.

    Purely observational — it reads the stage timestamps the engine
    already computed, never adjusts one.  The tiling of an instruction's
    own cycles is picked once, from the core it is attached to: the
    timeline pipeline's stage bounds, or the barrel core's issue bound.
    """

    __slots__ = ("core", "cursor", "totals", "by_thread", "by_pc",
                 "_pending", "samples", "_next_sample", "_barrel")

    def __init__(self, core) -> None:
        self.core = core
        #: barrel commits interleave all threads on one commit clock and
        #: pay no switch cost (no pending markers ever arrive): every
        #: issue wait, the idealized context fetch included, is
        #: ``dependency``
        self._barrel = isinstance(core, FGMTCore)
        #: last commit-clock cycle already accounted for
        self.cursor = 0
        self.totals: List[int] = [0] * len(CAUSES)
        self.by_thread: Dict[int, List[int]] = {}
        #: pc -> per-cause cycles, behind hotspots and folded stacks
        self.by_pc: Dict[int, List[int]] = {}
        #: scheduler boundary markers awaiting the next commit:
        #: ``(end_cycle, cause_index, tid)`` in monotone end order
        self._pending: List[Tuple[int, int, int]] = []
        self._next_sample = SAMPLE_CYCLES
        #: ``(cycle, totals tuple)`` counter-track samples
        self.samples: List[Tuple[int, Tuple[int, ...]]] = []

    # ------------------------------------------------------------- charging
    def _charge(self, tid: int, pc: int, cause: int, n: int) -> None:
        self.totals[cause] += n
        row = self.by_thread.get(tid)
        if row is None:
            row = self.by_thread[tid] = [0] * len(CAUSES)
        row[cause] += n
        by_pc = self.by_pc
        prow = by_pc.get(pc)
        if prow is None:
            prow = by_pc[pc] = [0] * len(CAUSES)
        prow[cause] += n

    # ------------------------------------------------ scheduler-time events
    def on_schedule(self, tid: int, t_req: int, t_sched: int) -> None:
        # (cursor, t_req] is switch drain, (t_req, t_sched] idle wait
        self._pending.append((t_req, _SWITCH, tid))
        if t_sched > t_req:
            self._pending.append((t_sched, _IDLE, tid))

    def on_switch_in(self, tid: int, t: int, t_fetch: int) -> None:
        self._pending.append((t_fetch, _SWITCH, tid))

    def on_switch(self, tid: int, t_req: int, t_sw: int, ready_at: int,
                  flushed: int) -> None:
        # (t_req, t_sw] is the switch held by posted spill writebacks
        self._pending.append((t_req, _SWITCH, tid))
        if t_sw > t_req:
            self._pending.append((t_sw, _SPILL_WRITEBACK, tid))

    def on_spill_window(self, tid: int, t_to: int) -> None:
        self._pending.append((t_to, _SPILL_WRITEBACK, tid))

    # ---------------------------------------------------------- the commit
    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        """Tile ``(cursor, t_c]``: pending markers first, then the
        instruction's own bounds."""
        tid = thread.tid
        pc = thread.pc
        cur = self.cursor
        limit = t_c - 1
        pending = self._pending
        if pending:
            for end, cause, ptid in pending:
                e = end if end < limit else limit
                if e > cur:
                    self._charge(ptid, SCHEDULER_PC, cause, e - cur)
                    cur = e
            del pending[:]

        if self._barrel:
            head = ((t_issue, _DEPENDENCY),)
        else:
            fetch = (t_d, _ICACHE_MISS if icache_missed else _FRONTEND)
            t_dp1 = t_d + 1
            if t_regs > t_ops and t_regs > t_dp1:
                spill_wait = self.core.decode_spill_wait()
                if spill_wait > 0:
                    # the port wait happens at the head of the VRMU access:
                    # carve the spill-occupancy slice off the refill tile
                    # (same total — the walk still covers the interval)
                    split = t_d + spill_wait
                    head = (fetch, (split if split < t_issue else t_issue,
                                    _SPILL_WRITEBACK),
                            (t_issue, _VRMU_REFILL))
                else:
                    head = (fetch, (t_issue, _VRMU_REFILL))
            elif t_ops > t_dp1:
                head = (fetch, (t_issue, _DEPENDENCY))
            else:
                head = (fetch, (t_issue, _FRONTEND))
        if d.is_load:
            mem_cause = _LOAD_MISS if load_missed else _LOAD_HIT
        elif d.is_store:
            mem_cause = _STORE_QUEUE
        else:
            mem_cause = _EXECUTE
        for end, cause in (*head,
                           (t_ex_done, _EXECUTE),
                           (data_at, mem_cause),
                           (limit, mem_cause)):
            e = end if end < limit else limit
            if e > cur:
                self._charge(tid, pc, cause, e - cur)
                cur = e
        self._charge(tid, pc, _RETIRE, 1)
        self.cursor = t_c
        if t_c >= self._next_sample:
            self._sample(t_c)

    def _sample(self, t_c: int) -> None:
        self.samples.append((t_c, tuple(self.totals)))
        nxt = self._next_sample
        self._next_sample = nxt + ((t_c - nxt) // SAMPLE_CYCLES + 1) \
            * SAMPLE_CYCLES

    # ------------------------------------------------------------ invariant
    @property
    def attributed(self) -> int:
        return sum(self.totals)

    def verify(self) -> None:
        """Enforce ``sum(attributed cycles) == commit clock`` for this core."""
        total = self.attributed
        cycles = int(self.core.commit_tail)
        if total != cycles:
            raise AttributionError(
                f"cycle attribution does not balance on core "
                f"{self.core.core_id}: attributed {total} != cycles {cycles}"
                f" (delta {total - cycles:+d})",
                core_id=self.core.core_id, attributed=total, cycles=cycles)

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """Plain-data form (deterministic, pickles/JSON-serializes)."""
        return {
            "core": int(self.core.core_id),
            "cycles": int(self.core.commit_tail),
            "causes": {CAUSES[i]: v for i, v in enumerate(self.totals) if v},
            "threads": {
                str(tid): {CAUSES[i]: v for i, v in enumerate(row) if v}
                for tid, row in sorted(self.by_thread.items())},
            "pcs": {
                str(pc): {CAUSES[i]: v for i, v in enumerate(row) if v}
                for pc, row in sorted(self.by_pc.items())},
        }
