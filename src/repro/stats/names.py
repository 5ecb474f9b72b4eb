"""Central registry of simulator counter names.

Every ``Stats.inc`` / ``Stats.set`` / ``Stats.max`` call site with a
literal key must draw the key from this registry — the names are stringly
typed at the call sites, so a typo would silently split one counter into
two.  The ``repro lint`` rule VRC008 enforces membership for literal keys
in ``src/`` (suppress a deliberate exception with ``# noqa: VRC008``).

Grouped by the subsystem that owns the name; a name may legitimately be
used by several subsystems (e.g. ``hits``/``misses`` by caches *and* the
VRMU) — the registry is one flat namespace because ``Stats`` namespaces
are positional (child trees), not part of the key.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["COUNTER_NAMES", "is_registered"]

COUNTER_NAMES: FrozenSet[str] = frozenset({
    # run-level summary (cores, node, ooo host)
    "cycles", "instructions", "ipc",
    # timeline engine (core/base.py)
    "icache_miss_stalls", "load_miss_stalls", "load_slot_stalls",
    "sq_full_stalls", "dcache_retries", "switches_suppressed",
    "context_switches", "flushed_instructions", "taken_branches",
    "threads_completed",
    # CGMT context storage (core/cgmt.py, core/fgmt.py)
    "context_fetches", "context_saves", "context_restores",
    # RF-prefetch cores (core/prefetch.py)
    "demand_context_fetches", "prefetched_switches",
    # ooo host commit-clock accounting (core/ooo.py, cycle_causes child)
    "commit_bw", "load_wait", "dataflow",
    # ViReC VRMU / tag store / rollback (virec/)
    "hits", "misses", "accesses", "victim_wait_cycles", "spill_evictions",
    "group_evictions", "context_prefetches", "flush_resets", "evictions",
    "task_context_drops", "rf_hit_rate", "rf_size", "overflow", "flushes",
    # dead-hint policies (virec/vrmu.py, repro.analysis.dataflow liveness)
    "dead_marks", "dead_evictions", "elided_writebacks",
    # BSI port (virec/bsi.py)
    "fills", "fill_backing_misses", "dummy_fills", "spills", "dirty_spills",
    "sysreg_reads", "sysreg_writes", "elided_spills",
    "spill_port_wait_cycles",
    # metadata-only pin releases (memory/cache.py)
    "metadata_unpins",
    # CSL prefetch decisions (virec/csl.py, memory/prefetcher.py)
    "prefetch_late_cycles", "prefetch_hits", "demand_fetches", "prefetches",
    "issued",
    # task pool (system/taskpool.py)
    "tasks_redispatched",
    # caches (memory/cache.py)
    "writebacks", "register_line_evictions", "forced_pinned_evictions",
    "reads", "writes", "under_fill_hits", "write_through", "mshr_full",
    "set_busy",
    "prefetch_fills", "line_invalidations",
    # DRAM (memory/dram.py)
    "row_hits", "row_empty", "row_misses", "busy_cycles",
    # crossbar (memory/crossbar.py)
    "queue_cycles", "requests",
    # fault injection (faults/injector.py)
    "faults_injected", "faults_masked", "faults_detected", "faults_escaped",
    "faults_corrected", "faults_spilled_to_backing", "bits_flipped",
    "recovery_cycles", "recovery_refills",
})


def is_registered(name: str) -> bool:
    """True when ``name`` is a known counter key."""
    return name in COUNTER_NAMES
