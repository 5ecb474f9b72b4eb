"""Profiling campaign description (safe to embed in a RunConfig).

Mirrors the metrics subsystem's opt-in discipline: ``RunConfig(profile=...)``
takes a :class:`ProfileConfig` (or a dict of its fields, or ``True`` for
the defaults); with the field left ``None`` nothing is wired — the engine
runs its compiled uninstrumented fast path and runs are bit-identical to a
build without this package.  The attributor is purely observational: it
classifies the commit-clock cycles the engine already computed but never
alters a timestamp, and ``profile=None`` is excluded from config/manifest
digests so pre-existing digests and checkpoint-journal keys stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..subsystems import parse_spec


@dataclass(frozen=True)
class ProfileConfig:
    """What the cycle attributor records."""

    #: classify every commit-clock cycle into the top-down taxonomy
    #: (per-cause and per-thread totals); False makes the config inert
    attribution: bool = True
    #: also accumulate the per-PC table behind hotspot listings and the
    #: folded-stack flamegraph export (small extra memory per static PC)
    by_pc: bool = True
    #: Chrome counter-track sample period in commit-clock cycles; samples
    #: merge into the run's telemetry :class:`EventTracer` when event
    #: tracing is also enabled.  0 disables sampling.
    sample_cycles: int = 512

    def __post_init__(self) -> None:
        if self.sample_cycles < 0:
            raise ValueError("sample_cycles must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when the attributor would actually be wired."""
        return self.attribution

    @classmethod
    def from_spec(cls, spec) -> "ProfileConfig":
        """Build from a ProfileConfig, a dict of its fields, True, or None."""
        if spec is None:
            return cls(attribution=False, by_pc=False, sample_cycles=0)
        return parse_spec(cls, spec, "profile")

    def with_(self, **kw) -> "ProfileConfig":
        return replace(self, **kw)
