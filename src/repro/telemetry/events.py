"""Structured event tracing with a Chrome trace-event JSON exporter.

Components emit typed events (context switch, VRMU miss/evict with cause,
spill, fill, dcache miss, fault injection, thread stall/run segments) into
an :class:`EventTracer` ring.  :meth:`EventTracer.chrome_trace` exports the
ring in the Chrome trace-event format, so any run opens directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* one *process* per simulated core (``pid`` = core id);
* one *track* per hardware thread (``tid`` = thread id) carrying ``run``
  and ``stall`` duration slices;
* auxiliary per-core tracks for the VRMU/BSI, the dcache, and
  scheduler/fault control events;
* spill/fill slices on the BSI track linked to the requesting thread's run
  slice with flow arrows (``s``/``f`` event pairs).

Timestamps are simulated cycles, exported 1 cycle = 1 µs so Perfetto's
time axis reads directly in cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: synthetic track (tid) numbers for non-thread event sources, per core
BSI_TRACK = 100
DCACHE_TRACK = 101
CTRL_TRACK = 102
PROFILE_TRACK = 103

_TRACK_NAMES = {
    BSI_TRACK: "vrmu/bsi",
    DCACHE_TRACK: "dcache",
    CTRL_TRACK: "sched/faults",
    PROFILE_TRACK: "cycle causes",
}

#: event name -> category, for the exported ``cat`` field
EVENT_CATEGORIES = {
    "run": "sched", "stall": "sched", "ctx_switch": "sched",
    "thread_done": "sched", "ctx_fetch": "sched", "ctx_save": "sched",
    "ctx_restore": "sched",
    "vrmu_hit": "vrmu", "vrmu_miss": "vrmu", "evict": "vrmu",
    "fill": "vrmu", "dummy_fill": "vrmu", "spill": "vrmu",
    "sysreg": "vrmu",
    "dcache_miss": "mem",
    "fault": "fault",
    "cycle_causes": "profile",
}

#: event name -> its argument keys, in the order the trace shows them.  An
#: event named here is recorded flat: the ring keeps its argument values,
#: and the ``args`` dict is built when the ring is read.  The eviction keys
#: end with the policy's ``FIELD_NAMES`` (``repro.virec.policies``).
EVENT_ARGS = {
    "run": ("reason",), "stall": ("cause",), "ctx_switch": ("tid", "flushed"),
    "thread_done": ("tid",), "ctx_fetch": ("tid",), "ctx_save": ("tid",),
    "ctx_restore": ("tid",),
    "vrmu_hit": ("tid", "reg"), "vrmu_miss": ("tid", "reg"),
    "evict": ("owner", "reg", "cause", "residency", "dirty",
              "T", "C", "A", "D", "prio"),
    "fill": ("tid", "reg"), "dummy_fill": ("tid", "reg"),
    "spill": ("tid", "reg", "dirty"),
    "sysreg": ("kind", "tid"),
    "dcache_miss": ("addr", "write", "reg_region"),
    "fault": ("site",),
}


def _decode(record: tuple) -> dict:
    """The Chrome trace-event dict of one recorded tuple.

    Every record starts ``name, ph, ts, pid, tid, dur``.  A flat record
    goes on with its event's ``EVENT_ARGS`` keys and their values; any
    other with ``args, flow, bind``.
    """
    name, ph, ts, pid, tid, dur, payload = record[:7]
    if payload.__class__ is tuple:
        args = dict(zip(payload, record[7:], strict=True))
        flow = bind = None
    else:
        args, flow, bind = record[6:]
    ev = {"name": name, "ph": ph, "ts": int(ts), "pid": int(pid),
          "tid": int(tid),
          "cat": EVENT_CATEGORIES.get(name, "misc")}
    if dur is not None:
        ev["dur"] = max(0, int(dur))
    if args:
        ev["args"] = args
    if flow is not None:
        ev["id"] = flow
    if bind is not None:
        ev["bp"] = bind
    return ev


class EventTracer:
    """Bounded ring of trace events shared by every core of one run.

    Each emitting call appends one tuple and bumps :attr:`counts`; the
    event dicts are built when :attr:`events` or :meth:`chrome_trace` is
    read.  An event with an ``EVENT_ARGS`` schema passes its argument
    values positionally to :meth:`instant` / :meth:`complete`, in schema
    order; any other passes an ``args`` dict.
    """

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        #: emitted events by name, the overwritten ones included
        self.counts: Dict[str, int] = {}
        self._ring: Deque[tuple] = deque(maxlen=max_events)
        self._flow_id = 0
        self._tracks: Dict[Tuple[int, int], str] = {}
        self._process_names: Dict[int, str] = {}

    # -- emission ----------------------------------------------------------
    def register_track(self, pid: int, tid: int, name: str) -> None:
        self._tracks[(pid, tid)] = name

    def register_process(self, pid: int, name: str) -> None:
        """Name a pid track (default: ``core {pid}``).

        Single-run traces keep the default (pid = simulated core id);
        cross-process sweep traces use this to label each worker process.
        """
        self._process_names[pid] = name

    def next_flow_id(self) -> int:
        self._flow_id += 1
        return self._flow_id

    def emit(self, name: str, ph: str, ts: int, pid: int, tid: int,
             dur: Optional[int] = None, args: Optional[dict] = None,
             flow: Optional[int] = None, bind: Optional[str] = None) -> None:
        """Record one trace event.

        ``ph`` is the Chrome trace phase: ``X`` complete (with ``dur``),
        ``i`` instant, ``s``/``f`` flow start/finish.  ``flow`` carries the
        flow id for s/f pairs; ``bind`` sets the flow binding point.
        """
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        self._ring.append((name, ph, ts, pid, tid, dur, args, flow, bind))

    # -- one append per event ---------------------------------------------
    def instant(self, name: str, ts: int, pid: int, tid: int, *values,
                args: Optional[dict] = None) -> None:
        """An ``i`` event: its ``EVENT_ARGS`` values, or ``args``."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        if values:
            self._ring.append((name, "i", ts, pid, tid, None,
                               EVENT_ARGS[name], *values))
        else:
            self._ring.append((name, "i", ts, pid, tid, None, args, None,
                               None))

    def complete(self, name: str, ts: int, dur: int, pid: int, tid: int,
                 *values, args: Optional[dict] = None) -> None:
        """An ``X`` event lasting ``dur``: its ``EVENT_ARGS`` values, or
        ``args``."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        if values:
            self._ring.append((name, "X", ts, pid, tid, dur,
                               EVENT_ARGS[name], *values))
        else:
            self._ring.append((name, "X", ts, pid, tid, dur, args, None,
                               None))

    def flow_pair(self, name: str, t_from: int, tid_from: int,
                  t_to: int, tid_to: int, pid: int) -> None:
        """Arrow from (tid_from, t_from) to (tid_to, t_to) on core ``pid``:
        two events, ``s`` then ``f``."""
        self._flow_id = fid = self._flow_id + 1
        counts = self.counts
        counts[name] = counts.get(name, 0) + 2
        ring = self._ring
        ring.append((name, "s", t_from, pid, tid_from, None, None, fid, None))
        ring.append((name, "f", t_to, pid, tid_to, None, None, fid, "e"))

    # -- introspection -----------------------------------------------------
    @property
    def events(self) -> List[dict]:
        """Retained events in emission order."""
        return [_decode(record) for record in self._ring]

    @property
    def dropped(self) -> int:
        """Events overwritten by later ones: emitted minus retained."""
        return sum(self.counts.values()) - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    # -- export ------------------------------------------------------------
    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The full run as a Chrome trace-event JSON object.

        Events are ordered by (pid, tid, ts) so every track's timestamps
        are monotonic; thread-name metadata labels each track.
        """
        out: List[dict] = []
        tracks = dict(self._tracks)
        events = self.events
        for ev in events:
            key = (ev["pid"], ev["tid"])
            if key not in tracks:
                tracks[key] = _TRACK_NAMES.get(ev["tid"],
                                               f"thread {ev['tid']}")
        pids = {p for p, _ in tracks} | set(self._process_names)
        for pid in sorted(pids):
            pname = self._process_names.get(pid, f"core {pid}")
            out.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": pname}})
        for (pid, tid), name in sorted(tracks.items()):
            out.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": name}})
            out.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"sort_index": tid}})
        out.extend(sorted(events,
                          key=lambda e: (e["pid"], e["tid"], e["ts"])))
        trace = {"traceEvents": out, "displayTimeUnit": "ms",
                 "otherData": {"clock": "1 cycle = 1us",
                               "dropped_events": self.dropped}}
        if metadata:
            trace["otherData"].update(metadata)
        return trace
