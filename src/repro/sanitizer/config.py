"""Sanitizer campaign description (safe to embed in a RunConfig).

Mirrors the fault/telemetry opt-in discipline: ``RunConfig(sanitize=...)``
takes a :class:`SanitizeConfig` (or a dict of its fields), and with the
field left ``None`` nothing is wired — runs are bit-identical to a build
without this package.  Even with the sanitizer *on*, every check is purely
observational: VSan reads simulator state but never alters a timestamp, so
a sanitize-on run that finds nothing produces exactly the same cycle
counts as a sanitize-off run (enforced by tests/sanitizer/test_noop.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..subsystems import parse_spec

#: when structural/full-state checks run: after every committed
#: instruction, every ``interval`` simulated cycles, or once at run end
GRANULARITIES = ("commit", "interval", "run")


@dataclass(frozen=True)
class SanitizeConfig:
    """Which invariants to verify, and how often."""

    #: check granularity: ``"commit"`` (full check after every committed
    #: instruction), ``"interval"`` (every :attr:`interval` cycles), or
    #: ``"run"`` (once, at the end of the run)
    granularity: str = "commit"
    #: cycles between checks when ``granularity == "interval"``
    interval: int = 1000
    #: maintain a shadow architectural register file (driven by the
    #: functional-simulator semantics) and compare the timing model's
    #: committed register/flag/pc/memory state against it
    shadow: bool = True
    #: verify VRMU structures: tag-store <-> physical-RF bijection, LRC
    #: T/C/A priority-word well-formedness, eviction-order consistency,
    #: rollback-queue bounds, CSL/BSI bookkeeping (no-op on cores
    #: without a VRMU)
    structures: bool = True
    #: verify that all BSI fill/spill/sysreg traffic stays inside the
    #: pinned dcache backing region reserved for register state
    backing_bounds: bool = True

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown sanitize granularity {self.granularity!r}; "
                f"use {GRANULARITIES}")
        if self.interval < 1:
            raise ValueError("sanitize interval must be >= 1")

    @property
    def enabled(self) -> bool:
        """True when any invariant family would actually be checked."""
        return bool(self.shadow or self.structures or self.backing_bounds)

    @classmethod
    def from_spec(cls, spec: object) -> "SanitizeConfig":
        """Build from a SanitizeConfig, a dict of its fields, True, or None."""
        if spec is None:
            return cls(shadow=False, structures=False, backing_bounds=False)
        return parse_spec(cls, spec, "sanitize")
