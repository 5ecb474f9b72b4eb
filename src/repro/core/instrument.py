"""The unified instrumentation bus of the timeline engine.

Fault injection, telemetry, metrics, cycle attribution, the VSan
sanitizer and the pipeline tracer each used to hang off the core as its
own attribute, and the hot loop paid one ``if self.X is not None`` per
layer per committed instruction whether or not anything was attached.
:class:`InstrumentBus` collapses them into one seam with two guarantees:

* **No probes on the fast path.**  The whole selection rule of
  ``TimelineCore._recompile_step``: an empty bus under the compiled engine
  runs the generated closure table (:mod:`repro.isa.compiled`), which
  contains *zero* instrumentation branches and never reads the bus;
  everything else — any instrument attached, under either engine, or the
  interpreted engine itself — runs the family's one reference body, which
  dispatches the bus at its probe points.  Attaching or detaching any
  instrument rebinds ``core._process_instruction`` between the two.

* **Fixed dispatch order.**  When instruments are attached they are
  dispatched in a fixed pipeline-position order per instruction:
  ``faults`` (front end, may legally add cycles) -> ``telemetry`` (commit
  clock) -> ``metrics`` (commit counters) -> ``profile`` (cycle
  attribution off the commit timestamps) -> ``sanitizer``
  (post-architectural-update commit check) -> ``tracer`` (record, last).
  Observational instruments (telemetry, metrics, profile, sanitizer,
  tracer) must never alter a cycle timestamp — the noop suites
  under ``tests/telemetry``, ``tests/sanitizer`` and ``tests/profiling``
  enforce cycle-identity of the attached path against the compiled table.

``core.fault_hook`` / ``core.telemetry`` / ``core.metrics`` /
``core.profile`` / ``core.sanitizer`` / ``core.tracer`` are readable and
writable attributes over the bus slots (one descriptor applied over
:data:`DISPATCH_ORDER`, see :mod:`repro.core.base`), so the ``attach()``
entry point of each subsystem is a plain attribute assignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["InstrumentBus"]

#: bus slot names in dispatch order (see the module docstring)
DISPATCH_ORDER = ("faults", "telemetry", "metrics", "profile", "sanitizer",
                  "tracer")


class InstrumentBus:
    """The instrumentation attachment point of one core.

    Slots (all ``None`` when detached, dispatch in this order):

    ``faults``
        :class:`~repro.faults.FaultInjector` — the only instrument allowed
        to return an adjusted timestamp (fault recovery costs cycles).
    ``telemetry``
        :class:`~repro.telemetry.CoreTelemetry` — event/interval recording
        off the commit clock; purely observational.
    ``metrics``
        :class:`~repro.metrics.CoreMetrics` — labeled counter/histogram
        recording off the commit clock (cross-process metrics registry);
        purely observational.
    ``profile``
        :class:`~repro.profiling.CycleAttributor` — top-down cycle
        accounting off the per-commit stage timestamps (per-cause,
        per-thread, per-PC); purely observational.
    ``sanitizer``
        :class:`~repro.sanitizer.CoreSanitizer` — shadow-state check after
        the architectural update; purely observational (raises on
        divergence, never adjusts timing).
    ``tracer``
        :class:`~repro.core.trace.PipelineTracer` — per-instruction stage
        timestamps; purely observational.
    """

    __slots__ = ("faults", "telemetry", "metrics", "profile", "sanitizer",
                 "tracer")

    def __init__(self) -> None:
        self.faults = None
        self.telemetry = None
        self.metrics = None
        self.profile = None
        self.sanitizer = None
        self.tracer = None

    @property
    def empty(self) -> bool:
        """True when nothing is attached (the compiled table may run)."""
        return (self.faults is None and self.telemetry is None
                and self.metrics is None and self.profile is None
                and self.sanitizer is None and self.tracer is None)

    def attached(self) -> List[Tuple[str, object]]:
        """``(slot, instrument)`` pairs in dispatch order, attached only."""
        return [(name, getattr(self, name)) for name in DISPATCH_ORDER
                if getattr(self, name) is not None]

    def set(self, slot: str, instrument: Optional[object]) -> None:
        """Attach (or detach with ``None``) one instrument by slot name."""
        if slot not in DISPATCH_ORDER:
            raise ValueError(f"unknown instrument slot {slot!r}; "
                             f"expected one of {DISPATCH_ORDER}")
        setattr(self, slot, instrument)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        on = ",".join(name for name, _ in self.attached()) or "empty"
        return f"<InstrumentBus {on}>"
