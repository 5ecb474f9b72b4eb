"""Top-down cycle accounting: per-cause, per-thread, per-PC attribution.

``repro.profiling`` answers *where the cycles go*.  Where the flat stall
counters (``icache_miss_stalls``, ``load_miss_stalls``, ...) count events,
the :class:`CycleAttributor` classifies **every** commit-clock cycle of a
run into an exhaustive top-down taxonomy (:data:`CAUSES`) — retire,
frontend, icache miss, dependency, VRMU refill, spill writeback, execute,
load hit/miss, store-queue full, switch overhead, idle — with the hard
invariant ``sum(attributed cycles) == total cycles`` enforced per run.

Attachment mirrors the metrics subsystem: ``RunConfig(profile=...)`` wires
a :class:`ProfileSession` whose attributors sit on the core's
``observers`` tuple (:class:`~repro.core.instrument.Observer`) — strictly
opt-in, purely observational, cycle-identical to a profile-off run.  The
``repro profile`` CLI verb layers hotspot listings, folded-stack
flamegraph export, and a two-config ``--diff`` view on top.
"""

from __future__ import annotations

from .attributor import CAUSES, CycleAttributor, SCHEDULER_PC
from .config import ProfileConfig
from .session import ProfileSession, diff_snapshots, merge_cause_totals

__all__ = ["CAUSES", "CycleAttributor", "ProfileConfig", "ProfileSession",
           "SCHEDULER_PC", "diff_snapshots", "merge_cause_totals"]


CONFIG = ProfileConfig


def wire(conf, cfg, node, instances):
    """Attach a ProfileSession (the ``profile`` row of
    :data:`repro.subsystems.SUBSYSTEMS`)."""
    session = ProfileSession(conf)
    for core in node.cores:
        session.attach(core)
    return session
