"""Telemetry: event tracing, interval metrics, and introspection probes.

The observability layer of the reproduction.  One
:class:`TelemetrySession` per run owns the shared event ring, the per-core
interval samplers, and the VRMU probes; :func:`TelemetrySession.attach`
wires a core's opt-in hooks (``core.telemetry``, ``vrmu.probe``,
``dcache.event_hook``, ...).

Strictly opt-in: with ``RunConfig(telemetry=None)`` (the default) nothing
is wired and runs are bit-identical to a build without this package; with
telemetry on, every instrument is purely observational, so cycle counts
are *still* identical — enforced by tests/telemetry/test_noop.py.

Artifacts:

* ``session.write_chrome_trace(path)`` — Chrome trace-event JSON (opens in
  Perfetto / chrome://tracing);
* ``session.metrics_jsonl()`` — deterministic per-interval metric rows;
* ``session.report()`` — terminal summary (event counts, VRMU eviction
  causes and residency, pipeline stall attribution).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .config import TelemetryConfig
from .events import BSI_TRACK, CTRL_TRACK, DCACHE_TRACK, EventTracer
from .probes import CoreTelemetry, VRMUProbe
from .profiler import HostProfiler
from .sampler import IntervalSampler, merge_rows

__all__ = ["BSI_TRACK", "CTRL_TRACK", "CoreTelemetry", "DCACHE_TRACK",
           "EventTracer", "HostProfiler", "IntervalSampler",
           "TelemetryConfig", "TelemetrySession", "VRMUProbe", "merge_rows"]


class TelemetrySession:
    """All telemetry state of one simulation run."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.events: Optional[EventTracer] = (
            EventTracer(self.config.max_events) if self.config.events
            else None)
        self.cores: List[CoreTelemetry] = []
        self._finalized = False

    # -- wiring ------------------------------------------------------------
    def attach(self, core) -> CoreTelemetry:
        """Wire one core's opt-in telemetry hooks to this session."""
        cfg = self.config
        ct = CoreTelemetry(self, core)
        core.telemetry = ct
        if cfg.pipeline_trace and core.tracer is None:
            from ..core.trace import PipelineTracer
            core.tracer = PipelineTracer(limit=cfg.pipeline_trace_limit)
        if cfg.vrmu_probes and hasattr(core, "vrmu"):
            probe = VRMUProbe(ct, core.vrmu)
            core.vrmu.probe = probe
            ct.vrmu_probe = probe
            if getattr(core, "sysregs", None) is not None:
                core.sysregs.event_sink = ct
        if cfg.events or cfg.interval:
            # interval sampling also needs the hook: the dcache's own
            # counters live outside the per-core stats subtree
            core.dcache.event_hook = ct.on_dcache_miss
        if cfg.events and getattr(core, "fault_hook", None) is not None:
            core.fault_hook.event_sink = ct
        if cfg.interval:
            ct.sampler = IntervalSampler(cfg.interval, core.stats,
                                         core_id=core.core_id,
                                         extra=ct.collect)
        self.cores.append(ct)
        return ct

    def finalize(self) -> None:
        """Close open run segments / residency spans and emit final samples.

        Once per run: a second call does nothing.
        """
        if self._finalized:
            return
        self._finalized = True
        for ct in self.cores:
            ct.finalize(int(ct.core.commit_tail))

    # -- artifacts ---------------------------------------------------------
    @property
    def event_count(self) -> int:
        return len(self.events) if self.events is not None else 0

    def interval_rows(self) -> List[Dict]:
        return merge_rows([ct.sampler for ct in self.cores
                           if ct.sampler is not None])

    def metrics_jsonl(self) -> str:
        """All cores' interval rows as deterministic JSON lines."""
        rows = self.interval_rows()
        if not rows:
            return ""
        return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"

    def write_metrics_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.metrics_jsonl())

    def chrome_trace(self, metadata: Optional[dict] = None) -> Optional[dict]:
        if self.events is None:
            return None
        return self.events.chrome_trace(metadata)

    def write_chrome_trace(self, path: str,
                           metadata: Optional[dict] = None) -> None:
        trace = self.chrome_trace(metadata)
        if trace is None:
            raise ValueError("event tracing was not enabled for this run")
        with open(path, "w") as f:
            json.dump(trace, f, sort_keys=True)

    # -- terminal report ---------------------------------------------------
    def report(self) -> str:
        """Human-readable summary of everything the session collected."""
        lines = ["telemetry report", "================"]
        if self.events is not None:
            lines.append(f"events: {len(self.events)} recorded "
                         f"({self.events.dropped} overwritten)")
            for name in sorted(self.events.counts):
                lines.append(f"  {name:<14} {self.events.counts[name]}")
        for ct in self.cores:
            probe = ct.vrmu_probe
            if probe is not None:
                s = probe.summary()
                lines.append(f"core {ct.pid} vrmu:")
                hr = s["hit_rate"]
                lines.append(f"  hit rate {hr:.2%} "
                             f"({s['hits']} hits / {s['misses']} misses)"
                             if hr is not None else "  no register traffic")
                if s["eviction_causes"]:
                    causes = ", ".join(f"{k}={v}" for k, v in
                                       s["eviction_causes"].items())
                    lines.append(f"  eviction causes: {causes}")
                if s["residency_hist_log2"]:
                    buckets = " ".join(
                        f"2^{k}:{v}" for k, v in
                        s["residency_hist_log2"].items())
                    lines.append(f"  residency histogram (cycles): {buckets}")
                if s["peak_occupancy"]:
                    peaks = ", ".join(f"t{k}={v}" for k, v in
                                      s["peak_occupancy"].items())
                    lines.append(f"  peak occupancy: {peaks}")
            tracer = getattr(ct.core, "tracer", None)
            if tracer is not None:
                st = tracer.stall_summary()
                lines.append(
                    f"core {ct.pid} pipeline stalls (last "
                    f"{st['instructions']} instructions): "
                    f"mem {st['mem_stall_cycles']:.0f} cycles "
                    f"({st['mem_stall_per_inst']:.2f}/inst), "
                    f"regs {st['reg_stall_cycles']:.0f} "
                    f"({st['reg_stall_per_inst']:.2f}/inst)")
        rows = self.interval_rows()
        if rows:
            lines.append(f"interval samples: {len(rows)} rows "
                         f"(interval {self.config.interval} cycles)")
        return "\n".join(lines)


CONFIG = TelemetryConfig


def wire(conf, cfg, node, instances):
    """Attach a TelemetrySession (the ``telemetry`` row of
    :data:`repro.subsystems.SUBSYSTEMS`)."""
    session = TelemetrySession(conf)
    for core in node.cores:
        session.attach(core)
    return session
