"""Per-core telemetry adapter and VRMU introspection probes.

:class:`CoreTelemetry` is an :class:`~repro.core.instrument.Observer` on a
core's ``observers`` tuple (empty by default — the same strictly-opt-in
discipline as ``fault_hook``).  It translates pipeline events into trace
events and drives the interval sampler off the core's commit clock.

:class:`VRMUProbe` attaches to a ViReC core's VRMU and collects the
register-cache dynamics the paper's figures argue from: occupancy by
thread, eviction-cause breakdown (capacity vs. cross-thread vs. group /
prefetch / task-drop), and per-register residency histograms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.instrument import Observer
from .events import BSI_TRACK, CTRL_TRACK, DCACHE_TRACK, EventTracer


class CoreTelemetry(Observer):
    """Event + sampling adapter for one core (one of ``core.observers``)."""

    def __init__(self, session, core) -> None:
        self.session = session
        self.core = core
        self.cfg = session.config
        self.pid = core.core_id
        self.events: Optional[EventTracer] = (session.events
                                              if self.cfg.events else None)
        self.sampler = None          # set by the session when interval > 0
        #: the core's PipelineTracer, set by the session with pipeline_trace
        self.tracer = None
        self.vrmu_probe: Optional[VRMUProbe] = None
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
        self.events.complete("run", start, t - start, self.pid, tid,
                             args={"reason": reason})

    def on_switch(self, tid: int, t_req: int, t_sw: int, ready_at: int,
                  flushed: int) -> None:
        self._end_run(tid, t_sw, "miss-switch")
        if self.events is not None:
            self.events.instant("ctx_switch", t_sw, self.pid, CTRL_TRACK,
                                args={"tid": tid, "flushed": flushed})
            self.events.complete("stall", t_sw, ready_at - t_sw, self.pid,
                                 tid, args={"cause": "dcache-miss"})

    def on_stall(self, tid: int, t: int, until: int, cause: str) -> None:
        if self.events is not None and until > t:
            self.events.complete("stall", t, until - t, self.pid, tid,
                                 args={"cause": cause})

    def on_thread_done(self, tid: int, t_c: int) -> None:
        self._end_run(tid, t_c, "done")
        if self.events is not None:
            self.events.instant("thread_done", t_c, self.pid, CTRL_TRACK,
                                args={"tid": tid})

    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        if self.sampler is not None:
            self.sampler.on_cycle(t_c)

    def on_context_move(self, kind: str, tid: int, t: int, done: int) -> None:
        if self.events is not None:
            self.events.complete(kind, t, done - t, self.pid, CTRL_TRACK,
                                 args={"tid": tid})

    # -- memory callbacks --------------------------------------------------
    def on_dcache_miss(self, now: int, addr: int, is_write: bool,
                       fill_done: int, is_register: bool) -> None:
        self._dcache_misses += 1
        if self.events is not None:
            self.events.complete(
                "dcache_miss", now, fill_done - now, self.pid, DCACHE_TRACK,
                args={"addr": int(addr), "write": bool(is_write),
                      "reg_region": bool(is_register)})

    # -- sysreg ping-pong buffer (CSL) -------------------------------------
    def on_sysreg(self, kind: str, tid: int, t: int) -> None:
        if self.events is not None:
            self.events.instant("sysreg", t, self.pid, CTRL_TRACK,
                                args={"kind": kind, "tid": tid})

    # -- fault injection ---------------------------------------------------
    def on_fault(self, site: str, t: int) -> None:
        if self.events is not None:
            self.events.instant("fault", t, self.pid, CTRL_TRACK,
                                args={"site": site})

    # -- interval-sampler extras ------------------------------------------
    def collect(self, cycle: int) -> Dict:
        """Row fragment for the interval sampler (instructions, occupancy)."""
        total = sum(th.instructions for th in self.core.threads)
        row: Dict = {"instructions": total - self._prev_instr,
                     "dcache_misses": self._dcache_misses - self._prev_dcache}
        self._prev_instr = total
        self._prev_dcache = self._dcache_misses
        if self.vrmu_probe is not None:
            occ = self.vrmu_probe.occupancy()
            row["occupancy_total"] = sum(occ.values())
            for tid in sorted(occ):
                row[f"occupancy_t{tid}"] = occ[tid]
        return row

    def finalize(self, cycle: int) -> None:
        for tid in list(self._run_start):
            self._end_run(tid, cycle, "end-of-run")
        if self.sampler is not None:
            self.sampler.finalize(cycle)
        if self.vrmu_probe is not None:
            self.vrmu_probe.finalize(cycle)


def _log2_bucket(cycles: int) -> int:
    """Histogram bucket: floor(log2(residency)), bucket 0 = [0, 2)."""
    b = 0
    c = max(0, int(cycles)) >> 1
    while c:
        b += 1
        c >>= 1
    return b


class VRMUProbe:
    """Introspection hooks wired into :class:`~repro.virec.vrmu.VRMU`.

    Aggregates occupancy, eviction causes, and residency; optionally emits
    per-event records (miss, evict, fill, spill) into the event tracer.
    Purely observational — never touches VRMU state or timing.
    """

    def __init__(self, ct: CoreTelemetry, vrmu) -> None:
        self.ct = ct
        self.vrmu = vrmu
        self.tagstore = vrmu.tagstore
        self.hits = 0
        self.misses = 0
        self.eviction_causes: Dict[str, int] = {}
        #: log2 residency-duration histogram: bucket -> evictions
        self.residency_hist: Dict[int, int] = {}
        #: flat architectural register -> total resident cycles (all threads)
        self.reg_residency: Dict[int, int] = {}
        #: per-thread peak register-cache occupancy
        self.peak_occupancy: Dict[int, int] = {}
        self._inserted: Dict[int, Tuple[int, int, int]] = {}  # slot->(tid,reg,t)

    # -- VRMU callbacks ----------------------------------------------------
    def on_hit(self, tid: int, reg: int, t: int) -> None:
        self.hits += 1
        ev = self.ct.events
        if ev is not None and self.ct.cfg.verbose_hits:
            ev.instant("vrmu_hit", t, self.ct.pid, BSI_TRACK,
                       args={"tid": tid, "reg": reg})

    def on_miss(self, tid: int, reg: int, t: int) -> None:
        self.misses += 1
        ev = self.ct.events
        if ev is not None:
            ev.instant("vrmu_miss", t, self.ct.pid, BSI_TRACK,
                       args={"tid": tid, "reg": reg})

    def on_insert(self, slot: int, tid: int, reg: int, t: int) -> None:
        self._inserted[slot] = (tid, reg, t)
        occ = self.tagstore.resident_count(tid)
        if occ > self.peak_occupancy.get(tid, 0):
            self.peak_occupancy[tid] = occ

    def _close_residency(self, slot: int, t: int) -> int:
        tid, reg, t0 = self._inserted.pop(slot, (None, None, t))
        span = max(0, t - t0)
        if reg is not None:
            self.reg_residency[reg] = self.reg_residency.get(reg, 0) + span
        self.residency_hist[_log2_bucket(span)] = \
            self.residency_hist.get(_log2_bucket(span), 0) + 1
        return span

    def on_evict(self, slot: int, requester_tid: int, cause: str,
                 t: int) -> None:
        """Called *before* the tag store drops ``slot``."""
        ts = self.tagstore
        owner, areg = int(ts.owner[slot]), int(ts.areg[slot])
        if cause == "capacity" and owner != requester_tid:
            cause = "thread"  # cross-thread displacement, not self-capacity
        self.eviction_causes[cause] = self.eviction_causes.get(cause, 0) + 1
        span = self._close_residency(slot, t)
        ev = self.ct.events
        if ev is not None:
            args = {"owner": owner, "reg": areg, "cause": cause,
                    "residency": span,
                    "dirty": bool(ts.dirty[slot])}
            args.update(ts.policy.describe(slot))
            ev.instant("evict", t, self.ct.pid, BSI_TRACK, args=args)

    def on_fill(self, tid: int, reg: int, t: int, done: int,
                dummy: bool = False) -> None:
        ev = self.ct.events
        if ev is None:
            return
        name = "dummy_fill" if dummy else "fill"
        ev.complete(name, t, done - t, self.ct.pid, BSI_TRACK,
                    args={"tid": tid, "reg": reg})
        if self.ct.cfg.flow_events and not dummy:
            ev.flow_pair("fill_flow", t, tid, done, BSI_TRACK, self.ct.pid)

    def on_spill(self, tid: int, reg: int, dirty: bool, t: int) -> None:
        ev = self.ct.events
        if ev is None:
            return
        ev.complete("spill", t, 1, self.ct.pid, BSI_TRACK,
                    args={"tid": tid, "reg": reg, "dirty": bool(dirty)})
        if self.ct.cfg.flow_events:
            ev.flow_pair("spill_flow", t, tid, t, BSI_TRACK, self.ct.pid)

    # -- introspection -----------------------------------------------------
    def occupancy(self) -> Dict[int, int]:
        """Current register-cache occupancy per thread id."""
        return self.tagstore.occupancy_by_thread()

    def finalize(self, cycle: int) -> None:
        """Close residency spans of registers still resident at run end."""
        for slot in list(self._inserted):
            self._close_residency(slot, cycle)

    def summary(self) -> Dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 6) if total else None,
            "eviction_causes": dict(sorted(self.eviction_causes.items())),
            "residency_hist_log2": {str(k): v for k, v in
                                    sorted(self.residency_hist.items())},
            "reg_residency_cycles": {str(k): v for k, v in
                                     sorted(self.reg_residency.items())},
            "peak_occupancy": {str(k): v for k, v in
                               sorted(self.peak_occupancy.items())},
        }
