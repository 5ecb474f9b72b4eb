"""Differential executor: one program, several cores, VSan as the judge.

Each generated program runs on a **banked reference core** and on a set
of candidate arms (ViReC under different eviction policies, FGMT), every
run with the VSan shadow sanitizer enabled and the workload's race-aware
golden-model check on.  Three classes of divergence become findings:

* **exceptions** — a :class:`~repro.errors.SimulationError` from any arm
  (sanitizer violation, functional-check failure, deadlock/watchdog
  wedge, fault escape).  A generated program wedging a core *is* a real
  bug, so budget exhaustion is a finding, never a harness crash;
* **instruction divergence** — committed instruction counts must be
  bit-equal across core types (they execute the same architectural
  program);
* **timing divergence** — the candidate/reference cycle ratio must stay
  inside the declared :data:`RATIO_BOUNDS` (pinned on the fixed kernel
  set by ``tests/fuzz/test_cycle_ratio.py`` before fuzzing relies on it).
  A timing finding arrives with a cycle-attribution cause breakdown in
  its details (``causes`` / ``ref_causes`` / ``dominant``) from
  deterministic profiled re-runs of both arms, so a ratio violation
  already names the stall class that blew the bound.

Failures are classified by a **stable signature** — exception type +
violated invariant + divergence site + arm, with no cycle numbers or
other run-volatile data — which is what the corpus dedups on and the
shrinker preserves.

Shrink candidates are arbitrary mutilations of valid programs, so the
oracle also recognises *invalid* programs (assembler rejections, pc
overruns, value-domain overflows — anything outside the simulator's
failure taxonomy) and reports them as ``valid=False`` instead of
findings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    DeadlockError,
    FaultEscapeError,
    SanitizerViolation,
    SimulationError,
    WatchdogTimeout,
)
from ..isa import AssemblerError
from ..system import RunConfig
from ..system import simulator as _simulator

#: the reference arm every candidate is compared against
REFERENCE_ARM: Tuple[str, str] = ("banked", "lrc")

#: candidate (core_type, policy) arms of the default differential matrix
DEFAULT_ARMS: Tuple[Tuple[str, str], ...] = (
    ("virec", "lrc"), ("virec", "plru"), ("fgmt", "lrc"))

#: declared candidate/reference cycle-ratio bounds per core type.  The
#: fixed-kernel calibration (gather/stride/spmv, 4x16) measures
#: virec/banked in [1.02, 1.09] and fgmt/banked in [0.62, 0.79]; the
#: bounds are deliberately generous because fuzzed programs roam far
#: wider in ILP and memory intensity than the paper kernels.
RATIO_BOUNDS: Dict[str, Tuple[float, float]] = {
    "virec": (0.2, 6.0),
    "fgmt": (0.1, 6.0),
}
_FALLBACK_BOUNDS: Tuple[float, float] = (0.05, 20.0)

#: per-arm simulated-cycle budget: generated programs terminate by
#: construction, so hitting this is a wedge finding, not noise
DEFAULT_MAX_CYCLES = 400_000

#: exception types that mark a *program* as invalid (shrink candidates
#: can break assembly, run off the end of the program, or push values
#: outside the domain an int register conversion accepts) — everything
#: in the simulator's own taxonomy is caught before these
_INVALID_ERRORS = (AssemblerError, OverflowError, ValueError, TypeError,
                   KeyError, IndexError, ZeroDivisionError, RecursionError,
                   RuntimeError)


def arm_name(core_type: str, policy: str) -> str:
    return f"{core_type}/{policy}"


@dataclass
class Finding:
    """One classified divergence, keyed by its stable signature."""

    signature: str
    kind: str                    # exception | instruction-divergence |
    arm: str                     # timing-divergence
    error_type: str = ""
    message: str = ""
    details: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {k: v for k, v in sorted(asdict(self).items())}


@dataclass
class OracleReport:
    """Outcome of one program's trip through the differential matrix."""

    valid: bool
    findings: List[Finding] = field(default_factory=list)
    #: arm name -> {"cycles", "instructions", "bits_flipped"} for arms
    #: that completed
    arms: Dict[str, Dict] = field(default_factory=dict)
    invalid_reason: str = ""

    @property
    def signatures(self) -> List[str]:
        return sorted({f.signature for f in self.findings})


def _deadlock_site(message: str) -> str:
    if "cycle budget" in message:
        return "cycle-budget"
    if "instruction budget" in message:
        return "instruction-budget"
    if "no runnable" in message:
        return "no-runnable-thread"
    return "wedge"


def classify(exc: SimulationError, arm: str) -> Finding:
    """Stable-signature finding for a simulation error on ``arm``.

    Signatures carry the exception type, the violated invariant, and the
    divergence site — never cycle numbers or values, so the same root
    cause always dedups onto the same corpus entry.
    """
    name = type(exc).__name__
    details: Dict = {}
    if isinstance(exc, SanitizerViolation):
        d = exc.details
        site = str(d.get("reg") or d.get("site") or "")
        details = {"invariant": exc.invariant, "site": site}
        sig = f"{name}:{exc.invariant}:{site}@{arm}"
    elif isinstance(exc, DeadlockError):
        site = _deadlock_site(str(exc))
        details = {"site": site,
                   "commit_tail": getattr(exc, "commit_tail", -1),
                   "committed": getattr(exc, "committed", -1)}
        sig = f"{name}:{site}@{arm}"
    elif isinstance(exc, WatchdogTimeout):
        details = {"commit_tail": getattr(exc, "commit_tail", -1),
                   "committed": getattr(exc, "committed", -1)}
        sig = f"{name}@{arm}"
    elif isinstance(exc, FaultEscapeError):
        details = {"site": exc.site}
        sig = f"{name}:{exc.site}@{arm}"
    else:
        sig = f"{name}@{arm}"
    return Finding(signature=sig, kind="exception", arm=arm,
                   error_type=name, message=str(exc), details=details)


def oracle_config(spec_dict: Dict, core_type: str, policy: str, *,
                  n_threads: int, n_per_thread: int, max_cycles: int,
                  faults: Optional[Dict] = None,
                  asm: Optional[str] = None,
                  sanitize: bool = True) -> RunConfig:
    """The RunConfig of one arm for one generated program."""
    wk: Dict = {"gen": dict(spec_dict)}
    if asm is not None:
        wk["asm"] = asm
    return RunConfig(
        workload="fuzz", core_type=core_type, policy=policy,
        n_threads=n_threads, n_per_thread=n_per_thread,
        seed=int(spec_dict.get("seed", 0)) & 0x7FFFFFFF,
        workload_kwargs=wk, max_cycles=max_cycles,
        faults=dict(faults) if faults else None,
        sanitize={"granularity": "commit"} if sanitize else None)


def _flips(result) -> int:
    return int(sum(v for k, v in result.stats.flat()
                   if k.endswith("faults.bits_flipped")))


def _attribution_causes(cfg: RunConfig) -> Dict[str, int]:
    """Per-cause cycle totals of one arm, re-run with profiling wired.

    Profiling is cycle-identical, so the deterministic re-run reproduces
    the diverging run exactly and the breakdown explains *that* ratio.
    Best-effort: an attribution failure never masks the finding itself,
    and the breakdown is deterministic data, so corpus bytes stay
    reproducible run-over-run.
    """
    try:
        result = _simulator.run_config(cfg.with_(profile=True), check=False)
        return dict(result.profile.snapshot().get("causes", {}))
    except SimulationError:
        return {}


def _run_arm(cfg: RunConfig, arm: str):
    """(stats, finding, invalid_reason) — exactly one of the three set."""
    try:
        result = _simulator.run_config(cfg, check=True)
    except SimulationError as exc:
        return None, classify(exc, arm), ""
    except _INVALID_ERRORS as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    return {"cycles": result.cycles, "instructions": result.instructions,
            "bits_flipped": _flips(result)}, None, ""


def run_oracle(spec_dict: Dict, *, n_threads: int = 4, n_per_thread: int = 16,
               arms: Sequence[Tuple[str, str]] = DEFAULT_ARMS,
               ratio_bounds: Optional[Dict] = None,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               faults: Optional[Dict] = None,
               asm: Optional[str] = None) -> OracleReport:
    """Run one program differentially; classify every divergence.

    ``spec_dict`` holds :class:`~repro.fuzz.generator.GenSpec` fields;
    ``asm`` optionally overrides the generated assembly (shrink
    candidates, replay).  ``faults`` wires a silent-flip campaign into
    every arm (the fault-detection acceptance mode).
    """
    bounds = dict(RATIO_BOUNDS)
    if ratio_bounds:
        bounds.update(ratio_bounds)
    report = OracleReport(valid=True)

    ref = arm_name(*REFERENCE_ARM)
    cfg = oracle_config(spec_dict, *REFERENCE_ARM, n_threads=n_threads,
                        n_per_thread=n_per_thread, max_cycles=max_cycles,
                        faults=faults, asm=asm)
    ref_cfg = cfg
    ref_stats, finding, invalid = _run_arm(cfg, ref)
    if invalid:
        return OracleReport(valid=False, invalid_reason=invalid)
    if finding is not None:
        report.findings.append(finding)
    else:
        report.arms[ref] = ref_stats

    for core_type, policy in arms:
        arm = arm_name(core_type, policy)
        cfg = oracle_config(spec_dict, core_type, policy,
                            n_threads=n_threads, n_per_thread=n_per_thread,
                            max_cycles=max_cycles, faults=faults, asm=asm)
        stats, finding, invalid = _run_arm(cfg, arm)
        if invalid:
            return OracleReport(valid=False, invalid_reason=invalid)
        if finding is not None:
            report.findings.append(finding)
            continue
        report.arms[arm] = stats
        if ref_stats is None:
            continue
        if stats["instructions"] != ref_stats["instructions"]:
            report.findings.append(Finding(
                signature=f"InstructionDivergence@{arm}",
                kind="instruction-divergence", arm=arm,
                message=(f"{stats['instructions']} committed vs "
                         f"{ref_stats['instructions']} on {ref}")))
        lo, hi = bounds.get(core_type, _FALLBACK_BOUNDS)
        ratio = (stats["cycles"] / ref_stats["cycles"]
                 if ref_stats["cycles"] else 0.0)
        if not lo <= ratio <= hi:
            side = "high" if ratio > hi else "low"
            causes = _attribution_causes(cfg)
            ref_causes = _attribution_causes(ref_cfg)
            deltas = {c: causes.get(c, 0) - ref_causes.get(c, 0)
                      for c in sorted(set(causes) | set(ref_causes))}
            report.findings.append(Finding(
                signature=f"TimingDivergence:{side}@{arm}",
                kind="timing-divergence", arm=arm,
                message=(f"cycle ratio {ratio:.3f} vs {ref} outside "
                         f"[{lo}, {hi}]"),
                details={"causes": causes, "ref_causes": ref_causes,
                         "dominant": [c for c, d in
                                      sorted(deltas.items(),
                                             key=lambda kv: -abs(kv[1]))
                                      if d][:5]}))

    report.findings.sort(key=lambda f: f.signature)
    return report
