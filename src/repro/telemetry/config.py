"""What an observed run records (safe to embed in a RunConfig).

Three ``RunConfig`` fields turn the observe layer on, each for its part of
the run's artifact set: ``telemetry`` (a mapping of the first six knobs
below: the event ring, register-cache record, interval rows and pipeline
tracer), ``metrics`` (``True`` or ``{"by_kind": ...}``: the per-run
metric cells and summary gauges) and ``profile`` (``True`` or ``{}``: the cycle
attribution).  :meth:`TelemetryConfig.from_spec` parses the three into one
config; a field left ``None`` records nothing of its part, and with all
three ``None`` nothing is wired — runs are bit-identical to a build
without this package.  Every instrument is purely observational: it reads
simulator state but never alters a timestamp, so an observed run produces
the same cycle counts as an unobserved one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..subsystems import spec_fields

#: the knobs each ``RunConfig`` field may set
FIELD_KNOBS = {
    "telemetry": ("events", "interval", "pipeline_trace",
                  "pipeline_trace_limit", "max_events", "verbose_hits"),
    "metrics": ("by_kind",),
    "profile": (),
}


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect during a run."""

    #: the ``telemetry`` field is set: a per-core adapter that also keeps
    #: the register-cache record (occupancy by thread, eviction-cause
    #: breakdown, residency histograms; none on cores without a VRMU)
    telemetry: bool = True
    #: the ``metrics`` field is set: committed instructions and the
    #: commit-gap histogram per core, run-end cycle and VRMU hit/miss totals
    metrics: bool = True
    #: the ``profile`` field is set: every commit-clock cycle classified
    #: into the top-down taxonomy, per cause, thread and PC
    profile: bool = True
    #: structured event tracing (context switches, VRMU traffic, dcache
    #: misses, faults, spill/fill flow arrows) exportable as Chrome
    #: trace-event JSON
    events: bool = True
    #: cycles between interval-metric samples (0 = no interval sampling)
    interval: int = 0
    #: attach a :class:`~repro.core.trace.PipelineTracer` to every core and
    #: fold its stall attribution into the telemetry report
    pipeline_trace: bool = False
    #: ring capacity of the pipeline tracer (when ``pipeline_trace``)
    pipeline_trace_limit: int = 10_000
    #: event-ring capacity; the oldest events are overwritten past this
    max_events: int = 200_000
    #: also record individual VRMU *hit* events (very high volume; hits are
    #: always aggregated into counters and interval series regardless)
    verbose_hits: bool = False
    #: also label commit counters by instruction kind (load/store/branch/
    #: alu) — slightly more per-commit work, much richer mix breakdowns
    by_kind: bool = False

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError("telemetry interval must be >= 0")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.pipeline_trace_limit < 1:
            raise ValueError("pipeline_trace_limit must be >= 1")

    @classmethod
    def from_spec(cls, telemetry=None, metrics=None,
                  profile=None) -> "TelemetryConfig":
        """Build from the ``telemetry``, ``metrics`` and ``profile`` specs.

        ``telemetry`` is a mapping of its knobs; ``metrics`` and
        ``profile`` are ``True`` or a mapping of theirs.  Without the
        ``telemetry`` field there is no event ring.
        """
        kw = {}
        for name, spec in (("telemetry", telemetry), ("metrics", metrics),
                           ("profile", profile)):
            kw[name] = spec is not None
            if spec is not None:
                kw.update(spec_fields(spec, name, FIELD_KNOBS[name],
                                      accepts_true=name != "telemetry"))
        if telemetry is None:
            kw["events"] = False
        return cls(**kw)
