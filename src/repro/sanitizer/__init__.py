"""VSan: the shadow-state simulation sanitizer.

Runtime correctness tooling for the register-virtualization claim the whole
reproduction rests on: the VRMU register cache must stay coherent with the
architectural state it virtualizes.  A silent tag-store/CSL mismatch or a
mis-ordered LRC priority word would corrupt every headline figure without
failing a single performance test — VSan makes that class of bug loud.

One :class:`Sanitizer` per run owns a :class:`~repro.sanitizer.shadow.ShadowCore`
per simulated core (an independent architectural register file advanced by
the functional-simulator semantics at every commit) plus the structural
checks of :mod:`repro.sanitizer.checks` (tag-store bijection, priority-word
well-formedness, eviction ordering, rollback/CSL/BSI bookkeeping, pinned
backing-region bounds).  A failed check raises a cycle-stamped
:class:`~repro.errors.SanitizerViolation`.

Strictly opt-in via ``RunConfig(sanitize=...)`` — mirroring ``faults=`` and
``telemetry=`` — and purely observational: a sanitize-on run that finds no
violation is cycle-identical to a sanitize-off run (enforced by
tests/sanitizer/test_noop.py).  The fault-injection subsystem doubles as
VSan's own test oracle: bit flips injected under the unprotected scheme
*must* be caught (tests/sanitizer/test_detection.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.instrument import Observer
from ..errors import SanitizerViolation
from ..isa.registers import from_flat
from .checks import (
    STRUCTURE_CHECKS,
    check_backing_bounds,
    check_bsi,
    check_policy,
    check_rollback,
    check_tagstore,
)
from .config import GRANULARITIES, SanitizeConfig
from .shadow import ShadowCore

__all__ = ["CoreSanitizer", "GRANULARITIES", "STRUCTURE_CHECKS",
           "SanitizeConfig", "Sanitizer", "SanitizerViolation", "ShadowCore",
           "check_backing_bounds", "check_bsi",
           "check_policy", "check_rollback", "check_tagstore"]


class CoreSanitizer(Observer):
    """Per-core sanitizer, one of the core's ``observers``.

    The core dispatches :meth:`on_commit` once per committed instruction,
    after the architectural update, so the shadow sees exactly the
    committed state.  All work happens here; the core never sees a return
    value, so the sanitizer cannot perturb timing.
    """

    def __init__(self, session: "Sanitizer", core: object,
                 shadow: Optional[ShadowCore]) -> None:
        self.session = session
        self.core = core
        self.shadow = shadow
        self.cfg = session.config
        self._next_check = (self.cfg.interval
                            if self.cfg.granularity == "interval" else 0)
        # per-commit sweeps cover the registers this workload can ever
        # touch (every VRMU slot tags one of them); the run-end sweep in
        # finalize() still covers the full architectural register file
        layout = getattr(core, "layout", None)
        used = getattr(layout, "used_regs", None) if layout is not None \
            else None
        self._sweep_regs = (tuple(from_flat(f) for f in used)
                            if used else None)

    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        """Advance the shadow and run checks per the configured granularity."""
        cfg = self.cfg
        per_commit = cfg.granularity == "commit"
        if self.shadow is not None:
            violation = self.shadow.step_commit(thread, d.inst, t_c,
                                                check_now=per_commit)
            if per_commit and violation is not None:
                raise violation
        if per_commit:
            self.check(t_c)
        elif cfg.granularity == "interval" and t_c >= self._next_check:
            self._next_check = t_c + cfg.interval
            self.check(t_c)

    def check(self, cycle: int, full: bool = False) -> None:
        """Shadow sweep over every thread + structural checks.

        ``full`` widens the sweep from the workload's used registers to
        the entire architectural register file (the run-end setting).
        """
        if self.shadow is not None:
            regs = None if full else self._sweep_regs
            violation = self.shadow.check_all(self.core.threads, cycle,
                                              regs=regs)
            if violation is not None:
                raise violation
        self._check_structures(cycle)

    def _check_structures(self, cycle: int) -> None:
        if self.cfg.structures:
            for fn in STRUCTURE_CHECKS:
                violation = fn(self.core, cycle)
                if violation is not None:
                    raise violation
        if self.cfg.backing_bounds:
            violation = check_backing_bounds(self.core, cycle)
            if violation is not None:
                raise violation


class Sanitizer:
    """All VSan state of one simulation run (one per ``run_config`` call)."""

    def __init__(self, config: Optional[SanitizeConfig] = None) -> None:
        self.config = config or SanitizeConfig()
        self.cores: List[CoreSanitizer] = []

    # -- wiring ------------------------------------------------------------
    def attach(self, core: object, memory: object) -> CoreSanitizer:
        """Wire one core's opt-in sanitizer hook to this session.

        ``memory`` is the core's (per-instance) functional main memory —
        the shadow reads load values and verifies store values through it.
        """
        shadow = (ShadowCore(core.core_id, core.threads, memory)
                  if self.config.shadow else None)
        cs = CoreSanitizer(self, core, shadow)
        core.observers += (cs,)
        self.cores.append(cs)
        return cs

    # -- run-end ------------------------------------------------------------
    def verify(self) -> None:
        """The driver's run-end sweep, at the slowest core's commit clock."""
        self.finalize(max(int(cs.core.commit_tail) for cs in self.cores))

    def finalize(self, cycle: int) -> None:
        """Run-end sweep (the only check point at ``granularity="run"``)."""
        for cs in self.cores:
            cs.check(cycle, full=True)

    # -- reporting ----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Shadow bookkeeping counters (diagnostics; not part of Stats)."""
        commits = sum(cs.shadow.commits for cs in self.cores
                      if cs.shadow is not None)
        frozen = sum(len(cs.shadow.frozen) for cs in self.cores
                     if cs.shadow is not None)
        return {"shadow_commits": commits, "frozen_threads": frozen,
                "cores": len(self.cores)}


CONFIG = SanitizeConfig


def wire(conf, cfg, node, instances):
    """Attach a VSan Sanitizer (the ``sanitize`` row of
    :data:`repro.subsystems.SUBSYSTEMS`)."""
    vsan = Sanitizer(conf)
    for core, inst in zip(node.cores, instances):
        vsan.attach(core, inst.memory)
    return vsan
