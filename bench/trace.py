"""Timing wrappers around the layers' public entry points.

Nothing inside ``src/repro`` changes: :class:`Tracer` swaps attributes on
classes and modules while a traced pass runs and puts the originals back
afterwards.  Names bound with ``from x import f`` are patched in the module
where they are looked up (``repro.core.base.compile_program``, not
``repro.isa.compiled.compile_program``).

Two kinds of wrapper share one parent/child stack:

* **coarse** entry points (a handful of calls per run) record a span each —
  name, start, end, parent span id — kept in memory until the
  benchmark writes them out;
* **hot** entry points (millions of calls) only add to a per-name
  :class:`Agg`: call count, inclusive seconds, seconds spent in wrapped
  children, and the number of wrapped child calls.

Self time is inclusive minus wrapped children.  A wrapper costs time too:
``inner_s`` of every call lands inside its own interval and ``outer_s``
lands in its parent's, so :meth:`Tracer.self_s` takes both out using the
per-call costs :func:`wrapper_cost` measures on this host.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

_pc = time.perf_counter


class Agg:
    """Online totals for one wrapped entry point."""

    __slots__ = ("calls", "incl", "child", "child_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.child = 0.0
        self.child_calls = 0


class Tracer:
    """Installs, records through, and removes the wrappers."""

    def __init__(self) -> None:
        self.aggs: Dict[str, Agg] = {}
        #: (span id, name, start, end, parent span id)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._frame = [0.0, 0]      # [child seconds, child calls] of the caller
        self._span = -1             # id of the innermost open span
        self._next_span = 0
        self._undo: List[Callable[[], None]] = []
        self.inner_s = 0.0
        self.outer_s = 0.0

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn: Callable, name: str, span: bool = False) -> Callable:
        """``fn`` timed under ``name``; ``span=True`` also records a span."""
        agg = self.aggs.setdefault(name, Agg())
        tracer = self

        if span:
            def wrapper(*args, **kwargs):
                frame = [0.0, 0]
                parent_frame, tracer._frame = tracer._frame, frame
                parent_span, sid = tracer._span, tracer._next_span
                tracer._next_span = sid + 1
                tracer._span = sid
                t0 = _pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = _pc()
                    dt = t1 - t0
                    tracer._frame = parent_frame
                    tracer._span = parent_span
                    parent_frame[0] += dt
                    parent_frame[1] += 1
                    agg.calls += 1
                    agg.incl += dt
                    agg.child += frame[0]
                    agg.child_calls += frame[1]
                    tracer.spans.append((sid, name, t0, t1, parent_span))
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0, 0]
                parent_frame, tracer._frame = tracer._frame, frame
                t0 = _pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _pc() - t0
                    tracer._frame = parent_frame
                    parent_frame[0] += dt
                    parent_frame[1] += 1
                    agg.calls += 1
                    agg.incl += dt
                    agg.child += frame[0]
                    agg.child_calls += frame[1]
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, span: bool = False) -> None:
        """Replace ``owner.attr`` with its timed wrapper until :meth:`remove`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        if isinstance(original, classmethod):
            timed = self.wrap(original.__func__, name, span)
            setattr(owner, attr, classmethod(timed))
        else:
            setattr(owner, attr, self.wrap(original, name, span))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            self._undo.pop()()

    # -- the repo's entry points ---------------------------------------------
    def install(self, workload_names) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import dataclasses

        from repro.core import base as core_base
        from repro.exec.backends import SerialBackend
        from repro.isa.decoded import DecodedProgram
        from repro.ledger.cache import CachedBackend
        from repro.ledger.store import LedgerReader, Recorder
        from repro.memory.cache import Cache
        from repro.memory.crossbar import Crossbar
        from repro.memory.dram import DRAM
        from repro.system import simulator
        from repro.system.node import NearMemoryNode
        from repro.virec.bsi import BackingStoreInterface
        from repro.virec.tagstore import TagStore
        from repro.virec.vrmu import VRMU
        from repro.workloads import registry

        self.inner_s, self.outer_s = wrapper_cost()

        coarse = [
            (simulator, "run_config", "run_config"),
            (registry.WorkloadInstance, "check", "WorkloadInstance.check"),
            (registry, "assemble", "assemble"),
            (DecodedProgram, "of", "DecodedProgram.of"),
            (core_base, "compile_program", "compile_program"),
            (NearMemoryNode, "run", "NearMemoryNode.run"),
            (SerialBackend, "map", "backend.map"),
            (CachedBackend, "map", "backend.map"),
            (Recorder, "record_result", "Recorder.record_result"),
            (LedgerReader, "lookup_result", "LedgerReader.lookup_result"),
        ]
        for owner, attr, name in coarse:
            self.patch(owner, attr, name, span=True)
        # WorkloadSpec.build is a field of a frozen dataclass, not a method:
        # the registry entry is swapped for a copy whose builder is timed
        table = registry._REGISTRY
        for wname in sorted(set(workload_names)):
            spec = table[wname]
            self._undo.append(
                lambda wname=wname, spec=spec: table.__setitem__(wname, spec))
            table[wname] = dataclasses.replace(
                spec, build=self.wrap(spec.build, "WorkloadSpec.build",
                                      span=True))

        hot = [
            (VRMU, "access", "VRMU.access"),
            (VRMU, "on_commit", "VRMU.on_commit"),
            (VRMU, "on_flush", "VRMU.on_flush"),
            (VRMU, "on_context_switch", "VRMU.on_context_switch"),
            (TagStore, "select_victim", "TagStore.select_victim"),
            (BackingStoreInterface, "fill", "BSI.fill"),
            (BackingStoreInterface, "dummy_fill", "BSI.dummy_fill"),
            (BackingStoreInterface, "spill", "BSI.spill"),
            (Cache, "access", "Cache.access"),
            (Crossbar, "access", "Crossbar.access"),
            (DRAM, "access", "DRAM.access"),
        ]
        for owner, attr, name in hot:
            self.patch(owner, attr, name)

    # -- reading the totals --------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.aggs[n].calls for n in names if n in self.aggs)

    def incl_s(self, *names: str) -> float:
        return sum(self.aggs[n].incl for n in names if n in self.aggs)

    def self_s(self, *names: str) -> float:
        """Inclusive minus wrapped children, wrapper cost taken out."""
        total = 0.0
        for n in names:
            a = self.aggs.get(n)
            if a is not None:
                total += (a.incl - a.child - a.calls * self.inner_s
                          - a.child_calls * self.outer_s)
        return max(total, 0.0)

    def span_dicts(self) -> List[Dict]:
        """Spans in start order; ``config`` is the ordinal of the enclosing
        ``run_config`` span (-1 outside any), so spans of one run share it."""
        spans = sorted(self.spans)
        parent_of = {sid: parent for sid, _n, _t0, _t1, parent in spans}
        ordinal: Dict[int, int] = {}
        for sid, name, _t0, _t1, _parent in spans:
            if name == "run_config":
                ordinal[sid] = len(ordinal)
        out = []
        for sid, name, t0, t1, parent in spans:
            at = sid
            while at >= 0 and at not in ordinal:
                at = parent_of[at]
            out.append({"id": sid, "name": name, "start_s": t0, "end_s": t1,
                        "parent": parent, "config": ordinal.get(at, -1)})
        return out


def wrapper_cost(calls: int = 100_000) -> Tuple[float, float]:
    """Per-call cost of a hot wrapper on this host: ``(inner_s, outer_s)``.

    ``inner_s`` is what the wrapper adds inside its own timed interval,
    ``outer_s`` what it adds around it (charged to the caller's self time).
    """
    def noop(a, b=0):
        return a

    tracer = Tracer()
    timed = tracer.wrap(noop, "noop")
    t0 = _pc()
    for i in range(calls):
        noop(i, b=1)
    bare = _pc() - t0
    t0 = _pc()
    for i in range(calls):
        timed(i, b=1)
    wrapped = _pc() - t0
    inner = tracer.aggs["noop"].incl / calls
    outer = max((wrapped - bare) / calls - inner, 0.0)
    return inner, outer


def stats_inc_ns(calls: int = 1_000_000) -> float:
    """Unit cost of ``Stats.inc`` in ns, loop overhead taken out."""
    from repro.stats.counters import Stats

    stats = Stats("bench")
    inc = stats.inc
    t0 = _pc()
    for _ in range(calls):
        inc("k")
    timed = _pc() - t0
    t0 = _pc()
    for _ in range(calls):
        pass
    empty = _pc() - t0
    return max(timed - empty, 0.0) / calls * 1e9
