"""Trace-driven register-cache analysis with a Belady-MIN oracle.

The paper motivates LRC as "aimed at evicting the registers used furthest in
the future, similar to Belady's MIN [12]" but never quantifies the gap to
the true clairvoyant optimum.  This module closes that loop:

* :class:`AccessTraceRecorder` hooks a :class:`~repro.virec.core.ViReCCore`
  and records the decode-stage register reference stream (thread, register,
  plus context-switch and flush markers);
* :func:`simulate_trace` replays a trace through a fully-associative
  register cache of any capacity under either a named policy from
  :mod:`repro.virec.policies` or the clairvoyant ``"opt"`` policy (evict the
  entry whose next reference is furthest in the future);
* :func:`policy_quality` reports each policy's hit rate as a fraction of
  OPT's — the "how close to MIN is LRC?" number.

The replay is *reference-level* (no timing), which is exactly the setting
in which Belady's algorithm is optimal.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .policies import make_policy
from .tagstore import TagStore


@dataclass
class TraceEvent:
    """One decode event: the registers one instruction references."""

    tid: int
    regs: Tuple[int, ...]          # flat architectural register indices
    kind: str = "access"           # "access" | "switch" | "flush"
    new_tid: int = -1              # for "switch" events


@dataclass
class RegisterTrace:
    """A recorded register reference stream."""

    events: List[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def accesses(self) -> int:
        return sum(len(e.regs) for e in self.events if e.kind == "access")

    def keys(self) -> List[Tuple[int, int]]:
        out = []
        for e in self.events:
            if e.kind == "access":
                out.extend((e.tid, r) for r in e.regs)
        return out


class AccessTraceRecorder:
    """Attach to a ViReC core and record its VRMU reference stream.

    Usage::

        core = ViReCCore(...)
        trace = AccessTraceRecorder.attach(core)
        core.run()
        # trace.events now holds the stream
    """

    def __init__(self, trace: Optional[RegisterTrace] = None) -> None:
        self.trace = trace if trace is not None else RegisterTrace()

    @classmethod
    def attach(cls, core) -> RegisterTrace:
        rec = cls()
        vrmu = core.vrmu
        orig_access = vrmu.access
        orig_switch = vrmu.on_context_switch
        orig_flush = vrmu.on_flush

        def access(tid, inst, t):
            if inst.regs:
                rec.trace.events.append(TraceEvent(
                    tid=tid, regs=tuple(r.flat for r in inst.regs)))
            return orig_access(tid, inst, t)

        def on_context_switch(prev_tid, new_tid):
            rec.trace.events.append(TraceEvent(tid=prev_tid, regs=(),
                                               kind="switch", new_tid=new_tid))
            return orig_switch(prev_tid, new_tid)

        def on_flush(tid, insts, flats=None):
            rec.trace.events.append(TraceEvent(
                tid=tid, kind="flush",
                regs=tuple(r.flat for i in insts for r in i.regs)))
            return orig_flush(tid, insts, flats)

        vrmu.access = access
        vrmu.on_context_switch = on_context_switch
        vrmu.on_flush = on_flush
        # a bare ViReC step touches all-resident operands itself; with
        # ``access`` rebound the core recompiles to the step that calls it
        core._recompile_step()
        return rec.trace


@dataclass
class ReplayResult:
    policy: str
    capacity: int
    hits: int
    misses: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


def _next_use_index(keys: List[Tuple[int, int]]) -> Dict[Tuple[int, int], List[int]]:
    positions: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        positions[key].append(i)
    return positions


def simulate_trace(trace: RegisterTrace, capacity: int,
                   policy: str = "lrc") -> ReplayResult:
    """Replay ``trace`` through a register cache of ``capacity`` entries.

    ``policy`` is a name from :mod:`repro.virec.policies` or ``"opt"`` for
    the Belady-MIN oracle.  Registers referenced by the same instruction are
    mutually protected from evicting each other, mirroring the VRMU.
    """
    if policy == "opt":
        return _simulate_opt(trace, capacity)
    return _simulate_policy(trace, capacity, policy)


def _simulate_policy(trace: RegisterTrace, capacity: int,
                     name: str) -> ReplayResult:
    ts = TagStore(capacity, make_policy(name, capacity))
    hits = misses = 0

    for event in trace.events:
        if event.kind == "switch":
            ts.on_context_switch(event.tid, event.new_tid)
            continue
        if event.kind == "flush":
            slots = [ts.lookup(event.tid, r) for r in event.regs]
            ts.policy.on_flush(s for s in slots if s is not None)
            continue
        ts.on_instruction()
        inst_slots = []
        for reg in event.regs:
            slot = ts.lookup(event.tid, reg)
            if slot is not None:
                hits += 1
                ts.touch(slot, is_write=False)
            else:
                misses += 1
                slot = ts.free_slot()
                if slot is None:
                    # reference-level replay: no fill is ever in flight
                    slot = ts.select_victim(inst_slots, now=0)
                    if slot is None:  # pragma: no cover - capacity guard
                        slot = ts.valid_slots()[0]
                    ts.evict(slot)
                ts.insert(slot, event.tid, reg, now=0)
            inst_slots.append(slot)
    return ReplayResult(name, capacity, hits, misses)


def _simulate_opt(trace: RegisterTrace, capacity: int) -> ReplayResult:
    keys = trace.keys()
    positions = _next_use_index(keys)
    resident: Dict[Tuple[int, int], None] = {}
    hits = misses = 0
    i = 0
    for event in trace.events:
        if event.kind != "access":
            continue
        inst_keys = {(event.tid, r) for r in event.regs}
        for reg in event.regs:
            key = (event.tid, reg)
            if key in resident:
                hits += 1
            else:
                misses += 1
                if len(resident) >= capacity:
                    victim = _furthest_future(resident, positions, i, inst_keys)
                    del resident[victim]
                resident[key] = None
            i += 1
    return ReplayResult("opt", capacity, hits, misses)


def _furthest_future(resident, positions, now_idx: int, protected) -> Tuple[int, int]:
    best_key, best_next = None, -1
    for key in resident:
        if key in protected:
            continue
        uses = positions.get(key, [])
        j = bisect_right(uses, now_idx)
        nxt = uses[j] if j < len(uses) else 1 << 60  # never used again
        if nxt > best_next:
            best_key, best_next = key, nxt
    if best_key is None:  # everything protected: evict any non-protected-first
        best_key = next(iter(resident))
    return best_key


def policy_quality(trace: RegisterTrace, capacity: int,
                   policies: Sequence[str] = ("plru", "lru", "mrt-plru",
                                              "mrt-lru", "lrc")) -> Dict[str, float]:
    """Hit rate of each policy normalized to the Belady-MIN oracle."""
    opt = simulate_trace(trace, capacity, "opt")
    out = {"opt": 1.0, "opt_hit_rate": opt.hit_rate}
    for name in policies:
        r = simulate_trace(trace, capacity, name)
        out[name] = r.hit_rate / opt.hit_rate if opt.hit_rate else 1.0
    return out
