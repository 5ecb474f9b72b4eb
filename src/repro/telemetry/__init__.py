"""Observability: one session per observed run, and the fleet registry.

The observability layer of the reproduction.  Three ``RunConfig`` fields
turn it on — ``telemetry`` (event ring, register-cache record, interval
rows, pipeline tracer), ``metrics`` (per-run metric cells) and ``profile``
(top-down cycle attribution) — and all three wire one
:class:`TelemetrySession` (the observe row of
:data:`repro.subsystems.SUBSYSTEMS`), which owns the run's whole artifact
set; see :mod:`repro.telemetry.session`.

Strictly opt-in: with all three fields ``None`` (the default) nothing is
wired and runs are bit-identical to a build without this package; with
any of them on, every instrument is purely observational, so cycle counts
are *still* identical — enforced by tests/telemetry/test_noop.py.

:class:`MetricsRegistry` is also the *fleet* half of the stack: where the
session looks inside one run, ``run_grid(..., metrics=registry)``
accumulates sweep counters and merges every worker-shipped per-run
snapshot into one registry, written as ``metrics.json`` in a sweep
directory.  Like ``host_profiles``, metric values never enter
reproducibility digests.
"""

from __future__ import annotations

from .attributor import CAUSES, CycleAttributor, SCHEDULER_PC
from .config import TelemetryConfig
from .events import BSI_TRACK, CTRL_TRACK, DCACHE_TRACK, EventTracer
from .probes import CoreMetrics, CoreTelemetry
from .registry import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                       MetricsRegistry)
from .sampler import IntervalSampler, merge_rows
from .session import TelemetrySession, diff_snapshots, merge_cause_totals

__all__ = ["BSI_TRACK", "CAUSES", "CTRL_TRACK", "CoreMetrics",
           "CoreTelemetry", "Counter", "CycleAttributor", "DCACHE_TRACK",
           "DEFAULT_BUCKETS", "EventTracer", "Gauge", "Histogram",
           "IntervalSampler", "MetricsRegistry", "SCHEDULER_PC",
           "TelemetryConfig", "TelemetrySession",
           "diff_snapshots", "merge_cause_totals", "merge_rows"]


CONFIG = TelemetryConfig


def wire(conf, cfg, node, instances):
    """Attach a TelemetrySession (the observe row of
    :data:`repro.subsystems.SUBSYSTEMS`)."""
    session = TelemetrySession(conf)
    for core in node.cores:
        session.attach(core)
    return session
