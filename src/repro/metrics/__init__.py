"""Cross-process metrics: typed Counter/Gauge/Histogram with label sets.

``repro.metrics`` is the *fleet* half of the observability stack.  Where
:mod:`repro.telemetry` looks inside one run (event rings, interval
samples, probes), a :class:`MetricsRegistry` aggregates **across** runs and
worker processes with deterministic snapshot/merge semantics — the same
discipline as :meth:`repro.stats.counters.Stats.merge`, but typed, labeled,
and built to cross a process boundary as plain JSON.

Two attachment points:

* **Per-run (engine level).**  ``RunConfig(metrics=...)`` wires a
  :class:`MetricsSession` whose :class:`CoreMetrics` sinks sit on the
  core's ``observers`` tuple (:class:`~repro.core.instrument.Observer`) —
  strictly opt-in, purely observational, recording off the one commit
  event.  With ``metrics=None`` (the default) the engine keeps its
  compiled uninstrumented fast path and manifest digests are
  byte-identical to a build without this package.

* **Per-sweep (fleet level).**  ``run_grid(..., metrics=registry)``
  accumulates sweep counters (rows by status, per-stage wall-clock) and
  merges every worker-shipped per-run snapshot into one registry; the CLI
  writes it as ``metrics.json`` inside a sweep directory for
  ``repro inspect``.

Like ``host_profiles``, metric values never enter reproducibility digests.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..core.instrument import Observer
from .config import MetricsConfig
from .registry import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                       MetricsRegistry)

__all__ = ["CoreMetrics", "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
           "MetricsConfig", "MetricsRegistry", "MetricsSession"]

#: commit-gap histogram bounds in cycles: tight at the pipelined end,
#: coarse into stall territory
_GAP_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024)


class CoreMetrics(Observer):
    """The per-core metrics sink: counts committed work.

    Records off the :meth:`~repro.core.instrument.Observer.on_commit`
    event.  Purely observational — it reads the commit timestamp, never
    adjusts one.
    """

    __slots__ = ("session", "core", "_core_label", "_instructions",
                 "_gaps", "_by_kind", "_last_commit", "_cells", "_gap_slot")

    def __init__(self, session: "MetricsSession", core) -> None:
        self.session = session
        self.core = core
        self._core_label = str(core.core_id)
        reg = session.registry
        cfg = session.config
        self._instructions = reg.counter(
            "sim_instructions_committed",
            "instructions committed, by core (and kind with by_kind)")
        self._gaps = (reg.histogram(
            "sim_commit_gap_cycles",
            "cycles between consecutive commits, by core",
            buckets=_GAP_BUCKETS) if cfg.commit_gaps else None)
        self._by_kind = cfg.by_kind
        self._last_commit = 0
        #: kind (``None`` without ``by_kind``) -> bound counter cell, and
        #: the bound histogram slot; bound at the first commit that writes
        #: them, so a series exists only once something was recorded
        self._cells: dict = {}
        self._gap_slot = None

    def _bind(self, kind: Optional[str]) -> list:
        """First commit of ``kind``: canonicalise the label sets once."""
        labels = {"core": self._core_label}
        if self._gaps is not None and self._gap_slot is None:
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
        gaps = self._gaps
        if gaps is not None:
            gaps.observe_into(self._gap_slot, t_c - self._last_commit)
            self._last_commit = t_c


class MetricsSession:
    """All metric state of one simulation run (owns the registry)."""

    def __init__(self, config: Optional[MetricsConfig] = None) -> None:
        self.config = config or MetricsConfig()
        self.registry = MetricsRegistry()
        self.cores: List[CoreMetrics] = []
        self._finalized = False

    # -- wiring ------------------------------------------------------------
    def attach(self, core) -> Optional[CoreMetrics]:
        """Add one core's :class:`CoreMetrics` to this session (and to the
        core's observers when commits are counted)."""
        if not self.config.commits:
            self.cores.append(CoreMetrics(self, core))  # for finalize only
            return None
        cm = CoreMetrics(self, core)
        core.observers += (cm,)
        self.cores.append(cm)
        return cm

    def finalize(self) -> None:
        """Fold run-end summary gauges from the simulated state.

        Once per run: a second call does nothing.
        """
        if self._finalized or not self.config.summary:
            return
        self._finalized = True
        reg = self.registry
        cycles = reg.gauge("sim_cycles", "commit-clock cycles, by core")
        vrmu_hits = reg.counter("sim_vrmu_hits", "VRMU register-cache hits")
        vrmu_miss = reg.counter("sim_vrmu_misses",
                                "VRMU register-cache misses")
        for cm in self.cores:
            core = cm.core
            cycles.set(int(core.commit_tail), core=cm._core_label)
            if hasattr(core, "vrmu"):
                vrmu_hits.inc(core.vrmu.stats["hits"], core=cm._core_label)
                vrmu_miss.inc(core.vrmu.stats["misses"], core=cm._core_label)

    # -- artifacts ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON value (ships across process boundaries)."""
        return self.registry.snapshot()

    def render_text(self) -> str:
        return self.registry.render_text()

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.snapshot(), f, indent=1, sort_keys=True)
            f.write("\n")


CONFIG = MetricsConfig


def wire(conf, cfg, node, instances):
    """Attach a MetricsSession (the ``metrics`` row of
    :data:`repro.subsystems.SUBSYSTEMS`)."""
    session = MetricsSession(conf)
    for core in node.cores:
        session.attach(core)
    return session
