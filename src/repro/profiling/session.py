"""Profile session: wiring, artifacts, and diff views over attributions.

One :class:`ProfileSession` owns the per-core
:class:`~repro.profiling.attributor.CycleAttributor` instruments of a run
and folds them into the artifacts the tooling consumes:

* :meth:`snapshot` — plain-data attribution (per-cause / per-thread /
  per-PC), the form that ships across process boundaries and lands in
  ``profile.json``;
* :meth:`hotspots` — per-PC table mapped back through the assembler's
  label/text tables to kernel source lines;
* :meth:`collapsed` — Brendan Gregg folded-stack lines (loadable in
  speedscope or flamegraph.pl);
* :meth:`finalize` — merges per-cause counter-track samples into the
  run's telemetry :class:`~repro.telemetry.events.EventTracer` (Chrome
  ``ph:"C"`` counter events) when event tracing is also on.

:func:`diff_snapshots` implements the ``repro profile --diff`` view: the
per-cause and per-PC cycle deltas between two runs (e.g. banked vs virec),
which is the one-command explanation of the Fig 9/10 gaps.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .attributor import CAUSES, CycleAttributor, SCHEDULER_PC
from .config import ProfileConfig

__all__ = ["ProfileSession", "diff_snapshots", "merge_cause_totals"]


def _label_map(program) -> Dict[int, str]:
    """pc -> nearest preceding label name (assembler source mapping)."""
    out: Dict[int, str] = {}
    if not getattr(program, "labels", None):
        return out
    ordered = sorted(program.labels.items(), key=lambda kv: (kv[1], kv[0]))
    current = None
    idx = 0
    for pc in range(len(program)):
        while idx < len(ordered) and ordered[idx][1] <= pc:
            current = ordered[idx][0]
            idx += 1
        if current is not None:
            out[pc] = current
    return out


class ProfileSession:
    """All cycle-attribution state of one simulation run."""

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config or ProfileConfig()
        self.attributors: List[CycleAttributor] = []
        self._finalized = False

    # -- wiring ------------------------------------------------------------
    def attach(self, core) -> CycleAttributor:
        """Add one core's :class:`CycleAttributor` to its observers."""
        attributor = CycleAttributor(core, self.config)
        core.observers += (attributor,)
        self.attributors.append(attributor)
        return attributor

    def verify(self) -> None:
        """Enforce the attribution-sum invariant on every core (may raise)."""
        for attributor in self.attributors:
            attributor.verify()

    def finalize(self) -> None:
        """Merge counter-track samples into the telemetry event tracer.

        Once per run: a second call does nothing.
        """
        if self._finalized:
            return
        self._finalized = True
        for attributor in self.attributors:
            if not self.config.sample_cycles:
                continue
            core = attributor.core
            # the telemetry ring, if an observer of this core carries one
            events = next((o.events for o in core.observers
                           if getattr(o, "events", None) is not None), None)
            if events is None:
                continue
            from ..telemetry.events import PROFILE_TRACK
            prev = (0,) * len(CAUSES)
            # one closing sample at the commit clock's end so the track
            # integrates to exactly the attributed total
            samples = list(attributor.samples)
            final = tuple(attributor.totals)
            if final != (samples[-1][1] if samples else prev):
                samples.append((int(core.commit_tail), final))
            for t_c, totals in samples:
                deltas = {CAUSES[i]: totals[i] - prev[i]
                          for i in range(len(CAUSES))
                          if totals[i] != prev[i]}
                events.emit("cycle_causes", "C", t_c, core.core_id,
                            PROFILE_TRACK, args=deltas)
                prev = totals

    # -- plain-data artifacts ---------------------------------------------
    @property
    def cycles(self) -> int:
        """Run cycles: the slowest core's commit clock (NodeResult rule)."""
        return max((int(a.core.commit_tail) for a in self.attributors),
                   default=0)

    def snapshot(self) -> dict:
        """Deterministic JSON value (ships across process boundaries)."""
        cores = [a.snapshot() for a in self.attributors]
        return {
            "taxonomy": list(CAUSES),
            "cycles": self.cycles,
            "causes": merge_cause_totals(cores),
            "cores": cores,
            "hotspots": self.hotspots(),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.snapshot(), f, indent=1, sort_keys=True)
            f.write("\n")

    # -- source-mapped views ----------------------------------------------
    def hotspots(self, top: Optional[int] = None) -> List[dict]:
        """Per-PC rows mapped to kernel source, hottest first.

        Each row carries the core id, pc, nearest preceding label, the
        assembler source text, total attributed cycles, and the per-cause
        breakdown.  Scheduler time appears as one ``<scheduler>`` row per
        core.  ``top=None`` returns every row.
        """
        rows = []
        for attributor in self.attributors:
            if attributor.by_pc is None:
                continue
            core = attributor.core
            labels = _label_map(core.program)
            for pc, counts in attributor.by_pc.items():
                total = sum(counts)
                if not total:
                    continue
                if pc == SCHEDULER_PC:
                    label, text = "<scheduler>", "<scheduler>"
                else:
                    inst = core.program[pc]
                    label = labels.get(pc, core.program.name)
                    text = inst.text or inst.opcode.name.lower()
                rows.append({
                    "core": int(core.core_id), "pc": int(pc),
                    "label": label, "text": text, "cycles": total,
                    "causes": {CAUSES[i]: v for i, v in enumerate(counts)
                               if v},
                })
        rows.sort(key=lambda r: (-r["cycles"], r["core"], r["pc"]))
        return rows[:top] if top is not None else rows

    def collapsed(self) -> str:
        """Folded-stack flamegraph lines (Brendan Gregg collapsed format).

        Stack frames: ``core<id>;<label>;<pc: text>;<cause> <cycles>``.
        Spaces inside instruction text are folded to ``_`` so the trailing
        count separator stays unambiguous for strict parsers.
        """
        lines = []
        for attributor in self.attributors:
            if attributor.by_pc is None:
                continue
            core = attributor.core
            labels = _label_map(core.program)
            prefix = f"core{core.core_id}"
            for pc in sorted(attributor.by_pc):
                counts = attributor.by_pc[pc]
                if pc == SCHEDULER_PC:
                    frames = f"{prefix};<scheduler>"
                else:
                    inst = core.program[pc]
                    text = (inst.text or inst.opcode.name.lower())
                    text = text.replace(" ", "_").replace(";", ",")
                    label = labels.get(pc, core.program.name)
                    frames = f"{prefix};{label};pc{pc}:{text}"
                for i, n in enumerate(counts):
                    if n:
                        lines.append(f"{frames};{CAUSES[i]} {n}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.collapsed())


# -- cross-run folding and diffs -------------------------------------------
def merge_cause_totals(cores: List[dict]) -> Dict[str, int]:
    """Sum per-cause cycles across per-core snapshot dicts."""
    out: Dict[str, int] = {}
    for core in cores:
        for cause, n in core.get("causes", {}).items():
            out[cause] = out.get(cause, 0) + n
    return out


def diff_snapshots(base: dict, other: dict) -> dict:
    """Per-cause and per-PC cycle deltas between two attribution snapshots.

    ``delta = other - base`` per cause, so a positive entry reads "the
    second config spends this many more cycles on that cause".  Per-PC
    deltas fold every core's table by pc (the configs may differ in core
    count).  ``dominant`` lists causes by absolute delta, largest first.
    """
    causes = sorted(set(base.get("causes", {})) | set(other.get("causes", {})))
    by_cause = {c: other.get("causes", {}).get(c, 0)
                - base.get("causes", {}).get(c, 0) for c in causes}

    def _fold_pcs(snap: dict) -> Dict[int, int]:
        folded: Dict[int, int] = {}
        for core in snap.get("cores", []):
            for pc, row in core.get("pcs", {}).items():
                folded[int(pc)] = folded.get(int(pc), 0) + sum(row.values())
        return folded

    pcs_base, pcs_other = _fold_pcs(base), _fold_pcs(other)
    by_pc = {pc: pcs_other.get(pc, 0) - pcs_base.get(pc, 0)
             for pc in sorted(set(pcs_base) | set(pcs_other))}
    return {
        "cycles_base": base.get("cycles", 0),
        "cycles_other": other.get("cycles", 0),
        "cycles_delta": other.get("cycles", 0) - base.get("cycles", 0),
        "by_cause": by_cause,
        "by_pc": {str(pc): d for pc, d in by_pc.items() if d},
        "dominant": [c for c, d in sorted(by_cause.items(),
                                          key=lambda kv: -abs(kv[1])) if d],
    }
