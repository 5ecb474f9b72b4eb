"""Telemetry campaign description (safe to embed in a RunConfig).

Mirrors the fault subsystem's opt-in discipline: ``RunConfig(telemetry=...)``
takes a :class:`TelemetryConfig` (or a dict of its fields), and with the
field left ``None`` nothing is wired — runs are bit-identical to a build
without this package.  All instruments are purely observational: they read
simulator state but never alter a timestamp, so even a telemetry-*on* run
produces the same cycle counts as a telemetry-off run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..subsystems import parse_spec


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect during a run."""

    #: structured event tracing (context switches, VRMU traffic, dcache
    #: misses, faults) exportable as Chrome trace-event JSON
    events: bool = True
    #: cycles between interval-metric samples (0 = no interval sampling)
    interval: int = 0
    #: VRMU introspection probes: occupancy by thread, eviction-cause
    #: breakdown, residency histograms (no-op on cores without a VRMU)
    vrmu_probes: bool = True
    #: attach a :class:`~repro.core.trace.PipelineTracer` to every core and
    #: fold its stall attribution into the telemetry report
    pipeline_trace: bool = False
    #: ring capacity of the pipeline tracer (when ``pipeline_trace``)
    pipeline_trace_limit: int = 10_000
    #: event-ring capacity; the oldest events are overwritten past this
    max_events: int = 200_000
    #: connect spill/fill slices to their requesting thread with
    #: Chrome-trace flow arrows (s/f event pairs)
    flow_events: bool = True
    #: also record individual VRMU *hit* events (very high volume; hits are
    #: always aggregated into counters and interval series regardless)
    verbose_hits: bool = False

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError("telemetry interval must be >= 0")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.pipeline_trace_limit < 1:
            raise ValueError("pipeline_trace_limit must be >= 1")

    @property
    def enabled(self) -> bool:
        """True when any instrument would actually be wired."""
        return bool(self.events or self.interval or self.vrmu_probes
                    or self.pipeline_trace)

    @classmethod
    def from_spec(cls, spec) -> "TelemetryConfig":
        """Build from a TelemetryConfig, a dict of its fields, or None."""
        if spec is None:
            return cls(events=False, interval=0, vrmu_probes=False)
        return parse_spec(cls, spec, "telemetry", accepts_true=False)

    def with_(self, **kw) -> "TelemetryConfig":
        return replace(self, **kw)
