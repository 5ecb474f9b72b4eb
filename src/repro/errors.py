"""Unified exception taxonomy for the simulator.

Every way a simulated run can fail is rooted at :class:`SimulationError`, so
drivers (``run_grid``, ``sweep``, the fault study) can isolate per-config
failures with one ``except`` clause instead of guessing which layer raised.
Two classes double-inherit from the builtin type they historically were —
:class:`DeadlockError` from ``RuntimeError`` and
:class:`FunctionalCheckError` from ``AssertionError`` — so existing callers
keep working unchanged.

The :class:`RunFailure` record (not an exception) is the structured form a
resilient sweep stores per failed configuration; it lives here rather than
in :mod:`repro.system.sweeps` so both the simulator and the sweep layer can
reference it without an import cycle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional


class SimulationError(Exception):
    """Root of the simulator's failure taxonomy."""


class _WedgeMixin:
    """Shared ``commit_tail``/``committed`` payload for wedge exceptions.

    A wedged run's most useful post-mortem facts are *where the commit
    clock stopped* and *how many instructions had committed*.  They ride
    inside the message (not only as attributes) because pool workers that
    fail to pickle an exception fall back to ``type(exc)(str(exc))`` —
    the attributes are lost but the message survives.
    """

    def __init__(self, message: str, commit_tail: int = -1,
                 committed: int = -1) -> None:
        if commit_tail >= 0 or committed >= 0:
            message = (f"{message} [commit_tail={commit_tail}, "
                       f"committed={committed}]")
        super().__init__(message)
        self.commit_tail = int(commit_tail)
        self.committed = int(committed)


class DeadlockError(_WedgeMixin, SimulationError, RuntimeError):
    """The core made no progress (bug guard for the timeline engine)."""


class FunctionalCheckError(SimulationError, AssertionError):
    """A workload's numpy-oracle check rejected the simulated output."""


class InvariantError(SimulationError):
    """Internal simulator bookkeeping ended in an inconsistent state.

    Replaces bare ``assert`` statements guarding simulation invariants in
    ``src/`` (which ``python -O`` would strip); the ``repro lint`` rule
    VRC004 enforces that discipline permanently.
    """


class SanitizerViolation(InvariantError, AssertionError):
    """VSan detected a divergence between simulated and shadow state.

    Raised by the opt-in runtime sanitizer (:mod:`repro.sanitizer`) when a
    checked invariant fails: timing-model register values diverging from
    the shadow architectural state, a broken tag-store bijection, a
    malformed LRC priority word, out-of-bounds backing traffic, or
    inconsistent rollback/CSL bookkeeping.  Double-inherits from
    ``AssertionError`` so historical callers of
    ``TagStore.check_invariants`` keep working unchanged.

    ``invariant`` is the violated rule's stable identifier (e.g.
    ``"shadow.reg"``, ``"tagstore.bijection"``), ``cycle`` the simulated
    cycle at which the check ran, and ``details`` a structured payload for
    machine consumption (the CLI and tests read it).
    """

    def __init__(self, message: str, invariant: str = "unknown",
                 cycle: int = -1, core_id: int = -1,
                 details: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.cycle = cycle
        self.core_id = core_id
        self.details = dict(details or {})

    def report(self) -> str:
        """Cycle-stamped human-readable diagnostic block."""
        lines = [f"SanitizerViolation: {self.invariant}",
                 f"  cycle   : {self.cycle}",
                 f"  core    : {self.core_id}",
                 f"  message : {self.args[0] if self.args else ''}"]
        for key in sorted(self.details):
            lines.append(f"  {key:<8}: {self.details[key]}")
        return "\n".join(lines)


class AttributionError(InvariantError):
    """The cycle attributor's books don't balance.

    Raised by the observed-run session's ``profile`` part
    (:class:`repro.telemetry.TelemetrySession`) when
    the sum of per-cause attributed cycles differs from the core's commit
    clock — the one invariant that makes a top-down breakdown trustworthy.
    ``attributed``/``cycles`` carry both sides of the failed equality.
    """

    def __init__(self, message: str, core_id: int = -1,
                 attributed: int = -1, cycles: int = -1) -> None:
        super().__init__(message)
        self.core_id = core_id
        self.attributed = attributed
        self.cycles = cycles


class FaultEscapeError(SimulationError):
    """Corrupted register/backing state reached architectural commit.

    Raised by detect-only protection (parity): the fault was observed but
    cannot be repaired, so the run must abort rather than silently commit
    wrong state.  ``site`` names where the flip lived ("rf", "tag",
    "backing").
    """

    def __init__(self, message: str, site: str = "rf") -> None:
        super().__init__(message)
        self.site = site


class LoweringError(ValueError):
    """The step compiler cannot generate a step for one instruction.

    A program input error, like the assembler's (hence ``ValueError``, not
    :class:`SimulationError`): raised when a core's step table is compiled,
    before anything runs, naming the pc and the instruction text.  The
    assembler rejects the register-class mismatches behind most of these,
    so what is left is a hand-built :class:`~repro.isa.Instruction` or a
    barrel-core program that runs off its end.
    """


class WatchdogTimeout(_WedgeMixin, SimulationError):
    """A per-config wall-clock watchdog expired mid-simulation."""


class WorkerCrashError(SimulationError):
    """A pool worker process died abruptly (segfault, ``os._exit``, OOM kill).

    Unlike every other member of the taxonomy this is raised by the
    *execution backend*, not the simulator: the worker never got to return
    a value, so the parent reconstructs what it can — the input positions
    of the chunk the worker held (``indices``) and the executor's exit
    context (``context``, e.g. the ``BrokenProcessPool`` message).  The
    resilient sweep converts it into a per-chunk
    :class:`RunFailure` instead of aborting the whole grid.
    """

    def __init__(self, message: str, indices: Optional[list] = None,
                 context: str = "") -> None:
        super().__init__(message)
        self.indices = list(indices or [])
        self.context = context


class TaskPoolError(SimulationError):
    """Task-pool bookkeeping ended inconsistent (tasks lost or undispatched).

    Carries the pool's structured ``snapshot`` (pending/dispatched/completed
    counts) so sweep-level tooling can report queue state instead of a bare
    assertion message.
    """

    def __init__(self, message: str, snapshot: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.snapshot = dict(snapshot or {})


#: failure classes worth retrying under a different seed: a reseeded run
#: changes workload data, fault victims, and scheduling, so these can clear
#: on retry; a functional-check failure with no faults injected cannot.
#: A worker crash is host-environment trouble (OOM, signal), not a property
#: of the config — retrying in a fresh worker is always reasonable.
TRANSIENT_ERRORS = (DeadlockError, WatchdogTimeout, FaultEscapeError,
                    WorkerCrashError)


@dataclass
class RunFailure:
    """Structured record of one failed configuration inside a sweep."""

    index: int                      # position in the grid
    config: Dict                    # asdict() of the RunConfig that failed
    error_type: str                 # exception class name
    message: str
    attempts: int = 1               # total tries, including retries
    elapsed_s: float = 0.0
    transient: bool = False
    key: str = ""                   # checkpoint-journal config key
    extra: Dict = field(default_factory=dict)

    @classmethod
    def from_exception(cls, exc: BaseException, index: int, config: Dict,
                       attempts: int = 1, elapsed_s: float = 0.0,
                       key: str = "") -> "RunFailure":
        extra = {}
        if isinstance(exc, FaultEscapeError):
            extra["site"] = exc.site
        if isinstance(exc, TaskPoolError):
            extra["snapshot"] = exc.snapshot
        if isinstance(exc, WorkerCrashError):
            extra["chunk_indices"] = exc.indices
            extra["exit_context"] = exc.context
        if isinstance(exc, SanitizerViolation):
            extra["invariant"] = exc.invariant
            extra["cycle"] = exc.cycle
            extra["core_id"] = exc.core_id
        if isinstance(exc, _WedgeMixin):
            extra["commit_tail"] = exc.commit_tail
            extra["committed"] = exc.committed
        return cls(index=index, config=config,
                   error_type=type(exc).__name__, message=str(exc),
                   attempts=attempts, elapsed_s=round(elapsed_s, 3),
                   transient=isinstance(exc, TRANSIENT_ERRORS),
                   key=key, extra=extra)

    def as_dict(self) -> Dict:
        return asdict(self)
