"""Cross-process span tracing for the sweep fleet.

Pool workers are observability black holes by default: the parent submits
a chunk, blocks, and gets results back with no idea how long each run sat
queued, built, simulated, or serialized.  This module closes that gap:

* **Worker side** — :class:`SpanRecorder` wraps one task's phases
  (``queue_wait``, ``setup``, ``simulate``, ``serialize``) into compact
  picklable records ``(index, pid, name, start_us, dur_us)``.  Timestamps
  are host monotonic microseconds relative to the sweep's ``t0``; on
  Linux ``CLOCK_MONOTONIC`` is system-wide, so parent and worker stamps
  share one axis.
* **Parent side** — :class:`SweepTrace` merges every worker's span records
  with the parent's own :class:`~repro.telemetry.EventTracer` ring into a
  single Chrome-trace/Perfetto file: the parent is pid 0, each worker
  process a distinct pid track, and every task gets a **flow arrow** from
  its parent-side dispatch instant to its worker-side span — pool
  imbalance and chunking overhead become visible at a glance.

These spans measure the *reproduction tool*, not the simulated machine:
like ``host_profiles`` they never feed back into simulated timing and are
excluded from reproducibility digests.  (That is also why this module is
on the linter's wall-clock allowlist — see VRC002.)
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SpanRecorder", "SweepTrace", "now_s", "task_spec"]

#: span record: (task index, worker pid, name, start_us, dur_us)
SpanRecord = Tuple[int, int, str, int, int]

#: the parent's pid track in merged traces (real pids are never 0)
PARENT_PID = 0


def now_s() -> float:
    """Monotonic seconds (comparable across processes on one host)."""
    return time.monotonic()


def task_spec(t0: float, spans: bool = True,
              events_path: Optional[str] = None,
              heartbeat_dir: Optional[str] = None) -> Dict:
    """The per-task observability spec shipped to workers.

    ``t0`` anchors every span timestamp; ``t_submit`` (stamped here) lets
    the worker compute its queue-wait.  All values are picklable
    primitives — the spec rides inside the task tuple.
    """
    return {"t0": t0, "t_submit": now_s(), "spans": spans,
            "events_path": events_path, "heartbeat_dir": heartbeat_dir}


class SpanRecorder:
    """Worker-side phase timer for one task (cheap, allocation-light)."""

    def __init__(self, obs: Dict, index: int) -> None:
        self.t0 = obs["t0"]
        self.index = index
        self.pid = os.getpid()
        self.records: List[SpanRecord] = []
        started = now_s()
        submit = obs.get("t_submit")
        if submit is not None and started > submit:
            self._push("queue_wait", submit, started)
        self._phase_start = started

    def _push(self, name: str, start: float, end: float) -> None:
        self.records.append((self.index, self.pid, name,
                             int((start - self.t0) * 1e6),
                             max(0, int((end - start) * 1e6))))

    def phase(self, name: str) -> None:
        """Close the running phase under ``name`` and start the next."""
        now = now_s()
        self._push(name, self._phase_start, now)
        self._phase_start = now


class SweepTrace:
    """Parent-side merge of dispatch events and worker span records.

    Owns an :class:`~repro.telemetry.EventTracer` for the parent's own
    events (sweep phases, per-task dispatch); :meth:`merge_spans` folds in
    worker records; :meth:`chrome_trace` exports the combined timeline.
    """

    def __init__(self, label: str = "sweep") -> None:
        from ..telemetry import EventTracer
        self.label = label
        self.t0 = now_s()
        self.events = EventTracer(max_events=500_000)
        self.events.register_track(PARENT_PID, 0, "dispatch")
        self._dispatch_us: Dict[int, int] = {}
        self._worker_pids: List[int] = []

    # -- parent-side emission ----------------------------------------------
    def _us(self, t: Optional[float] = None) -> int:
        return int(((now_s() if t is None else t) - self.t0) * 1e6)

    def dispatch(self, index: int, args: Optional[dict] = None) -> None:
        """Record that task ``index`` was handed to the backend now."""
        ts = self._us()
        self._dispatch_us[index] = ts
        self.events.instant("dispatch", ts, PARENT_PID, 0,
                            args=dict(args or {}, index=index))

    # -- worker-side merge --------------------------------------------------
    def merge_spans(self, records: Sequence[SpanRecord]) -> None:
        """Fold one task's worker span records into the trace.

        Each worker pid becomes its own Perfetto process track; the task's
        first span gets the parent->worker flow arrow's ``f`` end, bound to
        the matching ``s`` emitted at the parent's dispatch instant.
        """
        first = True
        for index, pid, name, start_us, dur_us in records:
            if pid not in self._worker_pids:
                self._worker_pids.append(pid)
                self.events.register_process(pid, f"worker {pid}")
                self.events.register_track(pid, 0, "tasks")
            self.events.complete(name, start_us, dur_us, pid, 0,
                                 args={"index": index})
            if first:
                first = False
                t_dispatch = self._dispatch_us.get(index, start_us)
                fid = self.events.next_flow_id()
                self.events.emit("task", "s", t_dispatch, PARENT_PID, 0,
                                 flow=fid)
                self.events.emit("task", "f", start_us, pid, 0,
                                 flow=fid, bind="e")

    @property
    def worker_pids(self) -> List[int]:
        """Distinct worker pids merged so far, in first-seen order."""
        return list(self._worker_pids)

    # -- export ------------------------------------------------------------
    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        meta = {"trace": self.label, "clock": "host monotonic (us)",
                "workers": len(self._worker_pids)}
        if metadata:
            meta.update(metadata)
        self.events.register_process(PARENT_PID, f"{self.label} parent")
        return self.events.chrome_trace(metadata=meta)

    def write(self, path: str, metadata: Optional[dict] = None) -> None:
        import json
        with open(path, "w") as f:
            json.dump(self.chrome_trace(metadata), f, sort_keys=True)
