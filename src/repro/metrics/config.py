"""Metrics campaign description (safe to embed in a RunConfig).

Mirrors the telemetry subsystem's opt-in discipline:
``RunConfig(metrics=...)`` takes a :class:`MetricsConfig` (or a dict of its
fields, or ``True`` for the defaults); with the field left ``None`` nothing
is wired — the engine runs its compiled uninstrumented fast path and runs
are bit-identical to a build without this package.  Every instrument here
is purely observational: it counts committed work but never alters a cycle
timestamp, and metric values live outside reproducibility digests (the
``metrics=None`` form is also *excluded* from config digests, so pre-PR
manifest digests and checkpoint-journal keys remain valid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..subsystems import parse_spec


@dataclass(frozen=True)
class MetricsConfig:
    """What the per-run metrics registry records."""

    #: per-commit counters: committed instructions by core (and the
    #: inter-commit gap histogram when ``commit_gaps``)
    commits: bool = True
    #: also label commit counters by instruction kind (load/store/branch/
    #: alu) — slightly more per-commit work, much richer mix breakdowns
    by_kind: bool = False
    #: histogram of commit-to-commit cycle gaps per core (pipeline
    #: smoothness; long tails are stall clusters)
    commit_gaps: bool = True
    #: run-end summary gauges/counters folded from the simulated state:
    #: cycles and instructions per core, VRMU hit/miss totals where a core
    #: has a VRMU
    summary: bool = True

    def __post_init__(self) -> None:
        if self.by_kind and not self.commits:
            raise ValueError("by_kind requires commits")

    @property
    def enabled(self) -> bool:
        """True when any recorder would actually be wired."""
        return bool(self.commits or self.summary)

    @classmethod
    def from_spec(cls, spec) -> "MetricsConfig":
        """Build from a MetricsConfig, a dict of its fields, True, or None."""
        if spec is None:
            return cls(commits=False, commit_gaps=False, summary=False)
        return parse_spec(cls, spec, "metrics")

    def with_(self, **kw) -> "MetricsConfig":
        return replace(self, **kw)
