"""Engine selection for the timeline cores.

Every core can run its per-instruction step under one of two engines:

``"compiled"``
    The threaded-code engine (:mod:`repro.isa.compiled`): each DecodedOp
    is a specialized closure chained through its basic block, dispatched
    as ``code[thread.pc](core, thread)``.  The default.

``"interpreted"``
    The per-op reference loop (``TimelineCore._reference_step``, and
    ``FGMTCore._reference_step`` for the barrel core): the one interpreted
    statement of each pipeline family's timing rules, and the golden arm
    the differential fuzz oracle and the equivalence suite hold the
    compiled engine byte-identical to.

``None`` resolves to :data:`DEFAULT_ENGINE` everywhere — a ``RunConfig``
and a directly constructed core alike.  The ``_recompile_step`` seam picks
the step body on every bus attach/detach; the whole selection rule is:

* empty :class:`~repro.core.instrument.InstrumentBus` and
  ``engine="compiled"``: the generated closure table (superop chains, no
  instrumentation branches);
* everything else — ``engine="interpreted"``, or any instrument attached
  under either engine: the reference body, which dispatches the bus at
  its probe points.  A compiled table also hands it any single op whose
  operand shape the lowering declines.

Both engines keep identical pipeline state (scoreboards are keyed by flat
register index in both), so ``set_engine`` mid-run rebinds the step and
converts nothing.  Engine choice is observational-only by construction —
stats digests, architectural state and every cycle timestamp are
identical — so the manifest digest excludes it, like the other
observation knobs.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ENGINES", "DEFAULT_ENGINE", "resolve_engine"]

#: valid engine names (also the CLI / RunConfig vocabulary)
ENGINES = ("compiled", "interpreted")

#: what ``engine=None`` resolves to (RunConfig and TimelineCore alike)
DEFAULT_ENGINE = "compiled"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; ``None`` resolves to :data:`DEFAULT_ENGINE`."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {ENGINES})")
    return engine
