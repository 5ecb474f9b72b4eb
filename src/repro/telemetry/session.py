"""The observed-run session: one per run, owning its whole artifact set.

A :class:`TelemetrySession` is what ``RunConfig(telemetry=..., metrics=...,
profile=...)`` wires.  :meth:`TelemetrySession.attach` puts each core's
observers on ``core.observers`` — a :class:`~repro.telemetry.probes.
CoreTelemetry` (which also takes the VRMU, dcache, sysreg and fault
events the core hands its parts' observers) and, with ``pipeline_trace``,
a :class:`~repro.core.trace.PipelineTracer`; a :class:`~repro.telemetry.
probes.CoreMetrics`; a :class:`~repro.telemetry.attributor.
CycleAttributor` — and writes nothing else.  The session owns what they
record:

* the event ring — :meth:`chrome_trace` (Chrome trace-event JSON, opens
  in Perfetto / chrome://tracing);
* the interval rows — :meth:`interval_rows` / :meth:`metrics_jsonl`;
* the metric cells — :attr:`registry` (``registry.snapshot()`` is the
  plain value that crosses a process boundary);
* the attribution tiles — :meth:`profile_snapshot` (what lands in
  ``profile.json``), :meth:`hotspots` mapped back to kernel source, and
  :meth:`collapsed` folded stacks;
* the register-cache summaries and pipeline stalls — :meth:`report`.

At run end ``run_config`` calls :meth:`verify` (the attribution sum, may
raise) and then :meth:`finalize` (once per run).

:func:`diff_snapshots` implements the ``repro inspect A --diff B`` view:
the per-cause and per-PC cycle deltas between two saved runs (e.g.
banked vs virec), which is the one-command explanation of the Fig 9/10
gaps.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .attributor import CAUSES, CycleAttributor, SCHEDULER_PC
from .config import TelemetryConfig
from .events import PROFILE_TRACK, EventTracer
from .probes import CoreMetrics, CoreTelemetry, HitTracingTelemetry
from .registry import MetricsRegistry
from .sampler import IntervalSampler, merge_rows

__all__ = ["TelemetrySession", "diff_snapshots", "merge_cause_totals"]


def _label_map(program) -> Dict[int, str]:
    """pc -> nearest preceding label name (assembler source mapping)."""
    out: Dict[int, str] = {}
    if not getattr(program, "labels", None):
        return out
    ordered = sorted(program.labels.items(), key=lambda kv: (kv[1], kv[0]))
    current = None
    idx = 0
    for pc in range(len(program)):
        while idx < len(ordered) and ordered[idx][1] <= pc:
            current = ordered[idx][0]
            idx += 1
        if current is not None:
            out[pc] = current
    return out


class TelemetrySession:
    """Everything one observed simulation run records."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.events: Optional[EventTracer] = (
            EventTracer(self.config.max_events) if self.config.events
            else None)
        self.registry = MetricsRegistry()
        #: per attached core, by part: the telemetry adapters, the commit
        #: counters and the cycle attributors
        self.cores: List[CoreTelemetry] = []
        self.counters: List[CoreMetrics] = []
        self.attributors: List[CycleAttributor] = []
        self._finalized = False

    # -- wiring ------------------------------------------------------------
    def attach(self, core) -> None:
        """Put one core's observers on ``core.observers``."""
        cfg = self.config
        if cfg.telemetry:
            ct = (HitTracingTelemetry if cfg.verbose_hits
                  else CoreTelemetry)(self, core)
            core.observers += (ct,)
            if cfg.pipeline_trace:
                from ..core.trace import PipelineTracer
                ct.tracer = PipelineTracer(limit=cfg.pipeline_trace_limit)
                core.observers += (ct.tracer,)
            if cfg.interval:
                ct.sampler = IntervalSampler(cfg.interval, core.stats,
                                             core_id=core.core_id,
                                             extra=ct.collect)
            self.cores.append(ct)
        if cfg.metrics:
            cm = CoreMetrics(self.registry, core, cfg.by_kind)
            core.observers += (cm,)
            self.counters.append(cm)
        if cfg.profile:
            attributor = CycleAttributor(core)
            core.observers += (attributor,)
            self.attributors.append(attributor)

    def verify(self) -> None:
        """Enforce the attribution-sum invariant on every core (may raise)."""
        for attributor in self.attributors:
            attributor.verify()

    def finalize(self) -> None:
        """Write the ``cycle_causes`` samples into the ring, close open run
        segments / residency spans with the final interval rows, and fold
        the summary gauges.

        Once per run: a second call does nothing.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.events is not None:
            for attributor in self.attributors:
                self._emit_cycle_causes(attributor)
        for ct in self.cores:
            ct.finalize(int(ct.core.commit_tail))
        if self.counters:
            reg = self.registry
            cycles = reg.gauge("sim_cycles", "commit-clock cycles, by core")
            hits = reg.counter("sim_vrmu_hits", "VRMU register-cache hits")
            misses = reg.counter("sim_vrmu_misses",
                                 "VRMU register-cache misses")
            for cm in self.counters:
                core, label = cm.core, cm._core_label
                cycles.set(int(core.commit_tail), core=label)
                if hasattr(core, "vrmu"):
                    hits.inc(core.vrmu.stats["hits"], core=label)
                    misses.inc(core.vrmu.stats["misses"], core=label)

    def _emit_cycle_causes(self, attributor: CycleAttributor) -> None:
        """One core's attribution samples as Chrome counter events."""
        core = attributor.core
        prev = (0,) * len(CAUSES)
        # one closing sample at the commit clock's end so the track
        # integrates to exactly the attributed total
        samples = list(attributor.samples)
        final = tuple(attributor.totals)
        if final != (samples[-1][1] if samples else prev):
            samples.append((int(core.commit_tail), final))
        for t_c, totals in samples:
            deltas = {CAUSES[i]: totals[i] - prev[i]
                      for i in range(len(CAUSES)) if totals[i] != prev[i]}
            self.events.emit("cycle_causes", "C", t_c, core.core_id,
                             PROFILE_TRACK, args=deltas)
            prev = totals

    # -- events and interval rows -------------------------------------------
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
        """Human-readable summary of the events, register cache and
        stalls."""
        lines = ["telemetry report", "================"]
        if self.events is not None:
            lines.append(f"events: {len(self.events)} recorded "
                         f"({self.events.dropped} overwritten)")
            for name in sorted(self.events.counts):
                lines.append(f"  {name:<14} {self.events.counts[name]}")
        for ct in self.cores:
            s = ct.vrmu_summary()
            if s is not None:
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
            tracer = ct.tracer
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

    # -- cycle attribution ---------------------------------------------------
    @property
    def cycles(self) -> int:
        """Run cycles: the slowest core's commit clock (NodeResult rule)."""
        return max((int(a.core.commit_tail) for a in self.attributors),
                   default=0)

    def profile_snapshot(self) -> dict:
        """The attribution as a deterministic JSON value (ships across
        process boundaries)."""
        cores = [a.snapshot() for a in self.attributors]
        return {
            "taxonomy": list(CAUSES),
            "cycles": self.cycles,
            "causes": merge_cause_totals(cores),
            "cores": cores,
            "hotspots": self.hotspots(),
        }

    def _frames(self):
        """``(core, pc, counts, label, text)`` for every attributed pc of
        every core, in core then pc order; scheduler time is labelled
        ``<scheduler>``."""
        for attributor in self.attributors:
            core = attributor.core
            labels = _label_map(core.program)
            for pc in sorted(attributor.by_pc):
                counts = attributor.by_pc[pc]
                if pc == SCHEDULER_PC:
                    yield core, pc, counts, "<scheduler>", "<scheduler>"
                    continue
                inst = core.program[pc]
                yield (core, pc, counts, labels.get(pc, core.program.name),
                       inst.text or inst.opcode.name.lower())

    def hotspots(self, top: Optional[int] = None) -> List[dict]:
        """Per-PC rows mapped to kernel source, hottest first.

        Each row carries the core id, pc, nearest preceding label, the
        assembler source text, total attributed cycles, and the per-cause
        breakdown.  Scheduler time appears as one ``<scheduler>`` row per
        core.  ``top=None`` returns every row.
        """
        rows = []
        for core, pc, counts, label, text in self._frames():
            total = sum(counts)
            if not total:
                continue
            rows.append({
                "core": int(core.core_id), "pc": int(pc),
                "label": label, "text": text, "cycles": total,
                "causes": {CAUSES[i]: v for i, v in enumerate(counts) if v},
            })
        rows.sort(key=lambda r: (-r["cycles"], r["core"], r["pc"]))
        return rows[:top] if top is not None else rows

    def collapsed(self) -> str:
        """Folded-stack flamegraph lines (Brendan Gregg collapsed format).

        Stack frames: ``core<id>;<label>;<pc: text>;<cause> <cycles>``.
        Spaces inside instruction text are folded to ``_`` so the trailing
        count separator stays unambiguous for strict parsers.
        """
        lines = []
        for core, pc, counts, label, text in self._frames():
            prefix = f"core{core.core_id}"
            if pc == SCHEDULER_PC:
                frames = f"{prefix};<scheduler>"
            else:
                text = text.replace(" ", "_").replace(";", ",")
                frames = f"{prefix};{label};pc{pc}:{text}"
            for i, n in enumerate(counts):
                if n:
                    lines.append(f"{frames};{CAUSES[i]} {n}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- cross-run folding and diffs -------------------------------------------
def merge_cause_totals(cores: List[dict]) -> Dict[str, int]:
    """Sum per-cause cycles across per-core snapshot dicts."""
    out: Dict[str, int] = {}
    for core in cores:
        for cause, n in core.get("causes", {}).items():
            out[cause] = out.get(cause, 0) + n
    return out


def diff_snapshots(base: dict, other: dict) -> dict:
    """Per-cause and per-PC cycle deltas between two attribution snapshots.

    ``delta = other - base`` per cause, so a positive entry reads "the
    second config spends this many more cycles on that cause".  Per-PC
    deltas fold every core's table by pc (the configs may differ in core
    count).  ``dominant`` lists causes by absolute delta, largest first.
    """
    causes = sorted(set(base.get("causes", {})) | set(other.get("causes", {})))
    by_cause = {c: other.get("causes", {}).get(c, 0)
                - base.get("causes", {}).get(c, 0) for c in causes}

    def _fold_pcs(snap: dict) -> Dict[int, int]:
        folded: Dict[int, int] = {}
        for core in snap.get("cores", []):
            for pc, row in core.get("pcs", {}).items():
                folded[int(pc)] = folded.get(int(pc), 0) + sum(row.values())
        return folded

    pcs_base, pcs_other = _fold_pcs(base), _fold_pcs(other)
    by_pc = {pc: pcs_other.get(pc, 0) - pcs_base.get(pc, 0)
             for pc in sorted(set(pcs_base) | set(pcs_other))}
    return {
        "cycles_base": base.get("cycles", 0),
        "cycles_other": other.get("cycles", 0),
        "cycles_delta": other.get("cycles", 0) - base.get("cycles", 0),
        "by_cause": by_cause,
        "by_pc": {str(pc): d for pc, d in by_pc.items() if d},
        "dominant": [c for c, d in sorted(by_cause.items(),
                                          key=lambda kv: -abs(kv[1])) if d],
    }
