"""Per-core observers: the telemetry adapter and the commit counters.

:class:`CoreTelemetry` and :class:`CoreMetrics` are
:class:`~repro.core.instrument.Observer` instances on a core's
``observers`` tuple (empty by default — the same strictly-opt-in
discipline as ``fault_hook``).  The first translates pipeline events into
trace events and drives the interval sampler off the core's commit clock;
the second counts committed work into bound metric cells.

:class:`CoreTelemetry` also records the register-cache dynamics the
paper's figures argue from, off the VRMU's events on the same bus:
occupancy by thread, the eviction-cause breakdown (capacity vs.
cross-thread vs. group / prefetch / task-drop), and per-register
residency histograms.  Hits and misses it reads from the VRMU's own
counters; :class:`HitTracingTelemetry` (``verbose_hits``) is the one sink
of the per-operand hit event.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Tuple

from ..core.instrument import Observer
from .events import BSI_TRACK, CTRL_TRACK, DCACHE_TRACK, EventTracer
from .registry import MetricsRegistry

#: commit-gap histogram bounds in cycles: tight at the pipelined end,
#: coarse into stall territory
_GAP_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024)


class CoreTelemetry(Observer):
    """Event + sampling adapter for one core (one of ``core.observers``),
    and the record of its VRMU's register-cache traffic."""

    def __init__(self, session, core) -> None:
        self.session = session
        self.core = core
        self.pid = core.core_id
        self.events: Optional[EventTracer] = session.events
        self.sampler = None          # set by the session when interval > 0
        #: the core's PipelineTracer, set by the session with pipeline_trace
        self.tracer = None
        #: the core's VRMU and its tag store (``None`` on a core without
        #: one, whose VRMU events never fire)
        self.vrmu = getattr(core, "vrmu", None)
        self.tagstore = self.vrmu.tagstore if self.vrmu is not None else None
        self.eviction_causes: Dict[str, int] = {}
        #: log2 residency-duration histogram: bucket -> evictions
        self.residency_hist: Dict[int, int] = {}
        #: flat architectural register -> total resident cycles (all threads)
        self.reg_residency: Dict[int, int] = {}
        #: per-thread peak register-cache occupancy
        self.peak_occupancy: Dict[int, int] = {}
        self._inserted: Dict[int, Tuple[int, int, int]] = {}  # slot->(tid,reg,t)
        self._run_start: Dict[int, int] = {}
        self._prev_instr = 0
        # dcache misses counted here because the cache's Stats counters
        # live under the shared "mem" subtree, outside the per-core tree
        # the interval sampler snapshots
        self._dcache_misses = 0
        self._prev_dcache = 0
        if self.events is not None:
            for th in core.threads:
                self.events.register_track(self.pid, th.tid,
                                           f"thread {th.tid}")

    # -- Observer events ---------------------------------------------------
    def on_switch_in(self, tid: int, t: int, t_fetch: int) -> None:
        self._run_start[tid] = t

    def _end_run(self, tid: int, t: int, reason: str) -> None:
        start = self._run_start.pop(tid, None)
        if start is None or self.events is None:
            return
        self.events.complete("run", start, t - start, self.pid, tid, reason)

    def on_switch(self, tid: int, t_req: int, t_sw: int, ready_at: int,
                  flushed: int) -> None:
        self._end_run(tid, t_sw, "miss-switch")
        if self.events is not None:
            self.events.instant("ctx_switch", t_sw, self.pid, CTRL_TRACK,
                                tid, flushed)
            self.events.complete("stall", t_sw, ready_at - t_sw, self.pid,
                                 tid, "dcache-miss")

    def on_stall(self, tid: int, t: int, until: int, cause: str) -> None:
        if self.events is not None and until > t:
            self.events.complete("stall", t, until - t, self.pid, tid,
                                 cause)

    def on_thread_done(self, tid: int, t_c: int) -> None:
        self._end_run(tid, t_c, "done")
        if self.events is not None:
            self.events.instant("thread_done", t_c, self.pid, CTRL_TRACK,
                                tid)

    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        sampler = self.sampler
        if sampler is not None and t_c >= sampler.next_at:
            sampler.on_cycle(t_c)

    def on_context_move(self, kind: str, tid: int, t: int, done: int) -> None:
        if self.events is not None:
            self.events.complete(kind, t, done - t, self.pid, CTRL_TRACK,
                                 tid)

    # -- the VRMU's register-cache traffic ---------------------------------
    def on_reg_miss(self, tid: int, reg: int, t: int) -> None:
        ev = self.events
        if ev is not None:
            ev.instant("vrmu_miss", t, self.pid, BSI_TRACK, tid, reg)

    def on_reg_insert(self, slot: int, tid: int, reg: int, t: int) -> None:
        self._inserted[slot] = (tid, reg, t)
        occ = self.tagstore.resident_count(tid)
        if occ > self.peak_occupancy.get(tid, 0):
            self.peak_occupancy[tid] = occ

    def _close_residency(self, slot: int, t: int) -> int:
        tid, reg, t0 = self._inserted.pop(slot, (None, None, t))
        span = max(0, t - t0)
        if reg is not None:
            self.reg_residency[reg] = self.reg_residency.get(reg, 0) + span
        bucket = _log2_bucket(span)
        self.residency_hist[bucket] = self.residency_hist.get(bucket, 0) + 1
        return span

    def on_reg_evict(self, slot: int, tid: int, cause: str, t: int) -> None:
        self.eviction_causes[cause] = self.eviction_causes.get(cause, 0) + 1
        span = self._close_residency(slot, t)
        ev = self.events
        if ev is not None:
            ts = self.tagstore
            ev.instant("evict", t, self.pid, BSI_TRACK, int(ts.owner[slot]),
                       int(ts.areg[slot]), cause, span, bool(ts.dirty[slot]),
                       *ts.policy.fields(slot))

    def on_reg_fill(self, tid: int, reg: int, t: int, done: int,
                    dummy: bool = False) -> None:
        ev = self.events
        if ev is None:
            return
        name = "dummy_fill" if dummy else "fill"
        ev.complete(name, t, done - t, self.pid, BSI_TRACK, tid, reg)
        if not dummy:
            ev.flow_pair("fill_flow", t, tid, done, BSI_TRACK, self.pid)

    def on_reg_spill(self, tid: int, reg: int, dirty: bool, t: int) -> None:
        ev = self.events
        if ev is None:
            return
        ev.complete("spill", t, 1, self.pid, BSI_TRACK, tid, reg,
                    bool(dirty))
        ev.flow_pair("spill_flow", t, tid, t, BSI_TRACK, self.pid)

    # -- the dcache, the sysreg ping-pong buffer (CSL), fault injection -----
    def on_dcache_miss(self, now: int, addr: int, is_write: bool,
                       fill_done: int, is_register: bool) -> None:
        self._dcache_misses += 1
        if self.events is not None:
            self.events.complete(
                "dcache_miss", now, fill_done - now, self.pid, DCACHE_TRACK,
                int(addr), bool(is_write), bool(is_register))

    def on_sysreg(self, kind: str, tid: int, t: int) -> None:
        if self.events is not None:
            self.events.instant("sysreg", t, self.pid, CTRL_TRACK, kind, tid)

    def on_fault(self, site: str, t: int) -> None:
        if self.events is not None:
            self.events.instant("fault", t, self.pid, CTRL_TRACK, site)

    # -- interval-sampler extras ------------------------------------------
    def collect(self, cycle: int) -> Dict:
        """Row fragment for the interval sampler (instructions, occupancy)."""
        total = sum(th.instructions for th in self.core.threads)
        row: Dict = {"instructions": total - self._prev_instr,
                     "dcache_misses": self._dcache_misses - self._prev_dcache}
        self._prev_instr = total
        self._prev_dcache = self._dcache_misses
        if self.tagstore is not None:
            occ = self.tagstore.occupancy_by_thread()
            row["occupancy_total"] = sum(occ.values())
            for tid in sorted(occ):
                row[f"occupancy_t{tid}"] = occ[tid]
        return row

    def finalize(self, cycle: int) -> None:
        for tid in list(self._run_start):
            self._end_run(tid, cycle, "end-of-run")
        if self.sampler is not None:
            self.sampler.finalize(cycle)
        # close the residency spans of registers still resident at run end
        for slot in list(self._inserted):
            self._close_residency(slot, cycle)

    def vrmu_summary(self) -> Optional[Dict]:
        """The register-cache record (``None`` on a core without a VRMU)."""
        if self.vrmu is None:
            return None
        stats = self.vrmu.stats
        hits, misses = int(stats["hits"]), int(stats["misses"])
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 6) if total else None,
            "eviction_causes": dict(sorted(self.eviction_causes.items())),
            "residency_hist_log2": {str(k): v for k, v in
                                    sorted(self.residency_hist.items())},
            "reg_residency_cycles": {str(k): v for k, v in
                                     sorted(self.reg_residency.items())},
            "peak_occupancy": {str(k): v for k, v in
                               sorted(self.peak_occupancy.items())},
        }


class HitTracingTelemetry(CoreTelemetry):
    """:class:`CoreTelemetry` that also records every VRMU hit as a
    ``vrmu_hit`` event (``verbose_hits``).  The one sink of the
    per-operand hit: without it a hit dispatches nothing."""

    def on_reg_hit(self, tid: int, reg: int, t: int) -> None:
        ev = self.events
        if ev is not None:
            ev.instant("vrmu_hit", t, self.pid, BSI_TRACK, tid, reg)


def _log2_bucket(cycles: int) -> int:
    """Histogram bucket: floor(log2(residency)), bucket 0 = [0, 2)."""
    return (max(0, int(cycles)) >> 1).bit_length()


class CoreMetrics(Observer):
    """The per-core metrics sink: counts committed work.

    Records off the :meth:`~repro.core.instrument.Observer.on_commit`
    event into ``registry``: committed instructions by core (and by kind
    with ``by_kind``) and the commit-to-commit gap histogram.  Purely
    observational — it reads the commit timestamp, never adjusts one.
    """

    __slots__ = ("core", "_core_label", "_instructions", "_gaps",
                 "_gap_bounds", "_by_kind", "_last_commit", "_cells",
                 "_gap_slot")

    def __init__(self, registry: MetricsRegistry, core,
                 by_kind: bool = False) -> None:
        self.core = core
        self._core_label = str(core.core_id)
        self._instructions = registry.counter(
            "sim_instructions_committed",
            "instructions committed, by core (and kind with by_kind)")
        self._gaps = registry.histogram(
            "sim_commit_gap_cycles",
            "cycles between consecutive commits, by core",
            buckets=_GAP_BUCKETS)
        self._gap_bounds = self._gaps.buckets
        self._by_kind = by_kind
        self._last_commit = 0
        #: kind (``None`` without ``by_kind``) -> bound counter cell, and
        #: the bound histogram slot; bound at the first commit that writes
        #: them, so a series exists only once something was recorded
        self._cells: dict = {}
        self._gap_slot = None

    def _bind(self, kind: Optional[str]) -> list:
        """First commit of ``kind``: canonicalise the label sets once."""
        labels = {"core": self._core_label}
        if self._gap_slot is None:
            self._gap_slot = self._gaps.bind(**labels)
        if kind is not None:
            labels["kind"] = kind
        cell = self._cells[kind] = self._instructions.bind(**labels)
        return cell

    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        """Record one committed instruction (``d`` is its DecodedOp)."""
        kind = None
        if self._by_kind:
            if d.is_load:
                kind = "load"
            elif d.is_store:
                kind = "store"
            elif d.is_branch:
                kind = "branch"
            else:
                kind = "alu"
        cell = self._cells.get(kind)
        if cell is None:
            cell = self._bind(kind)
        cell[0] += 1
        # Histogram.observe_into, inline: a gap is an int, never NaN
        gap = t_c - self._last_commit
        slot = self._gap_slot
        slot[0][bisect_left(self._gap_bounds, gap)] += 1
        slot[1] += float(gap)
        slot[2] += 1
        self._last_commit = t_c
