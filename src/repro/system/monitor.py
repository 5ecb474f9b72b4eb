"""Live sweep observability: one event log, and the folds of it.

A multi-hour grid under ``run_grid`` is a black box: the checkpoint
journal says what *finished*, but nothing says what is running right now,
how fast, or whether a worker has silently hung.  This module adds the
missing runtime surface, all rooted in one **sweep directory**:

``sweep_events.jsonl``
    The sweep's one record of host time: a structured, append-only event
    log.  The parent writes lifecycle rows (``sweep_start``,
    ``row_resumed``, ``sweep_end``, and ``row_fail`` for a task whose
    worker died); each worker appends ``row_start`` at pickup and
    ``row_ok`` / ``row_fail`` at the end (one atomic ``O_APPEND`` line
    each, through :func:`append_event`), so the log is live even while
    the parent blocks on the pool.  The end row of a shipped task carries
    ``serialize_s``, the time spent making its outcome cross the process
    boundary.  A directory reused by ``--resume`` holds every earlier
    sweep too; each fold reads from the last ``sweep_start`` on.
``trace.json``
    The merged parent+workers Chrome trace, folded from the log at sweep
    end by :class:`SweepTrace`.

:func:`read_state` folds the log into a :class:`SweepState` (counts,
rate, and each worker's age since its last row, which is how a hung or
OOM-killed worker becomes visible before the pool reports anything);
:func:`render_panel` turns a state into the refreshing text panel used by
``repro sweep --live`` and ``repro inspect <dir>`` — pure functions, so
the panel is testable without a terminal or a running sweep.

Everything here times the *host-side fleet*; readings never reach
simulated state or digests (this module is on the linter's wall-clock
allowlist, like the profiler).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["PARENT_PID", "SweepObservability", "SweepState", "SweepTrace",
           "append_event", "monitor_loop", "now_s", "read_state",
           "render_panel"]

#: The artifact file names of a run or sweep directory, stated once: the
#: writers (``repro run --observe ... --out DIR``, ``repro sweep --dir
#: DIR``) and the readers (``repro inspect``,
#: :func:`~repro.stats.report_html.build_report`) all use these.
TRACE_NAME = "trace.json"            # Chrome trace-event JSON
INTERVALS_NAME = "intervals.jsonl"   # interval-metric rows
PROFILE_NAME = "profile.json"        # cycle-attribution snapshot
FOLDED_NAME = "profile.folded"       # folded flamegraph stacks
EVENTS_NAME = "sweep_events.jsonl"   # sweep event log
MANIFEST_NAME = "manifest.json"      # sweep configs + result summaries
METRICS_NAME = "metrics.json"        # fleet metrics-registry snapshot
ARTIFACT_NAMES = (TRACE_NAME, INTERVALS_NAME, PROFILE_NAME, FOLDED_NAME,
                  EVENTS_NAME, MANIFEST_NAME, METRICS_NAME)

#: a worker whose last row is older than this is flagged in the panel
STALE_AFTER_S = 30.0

#: the parent's pid track in merged traces (real pids are never 0)
PARENT_PID = 0


def now_s() -> float:
    """Monotonic seconds (comparable across processes on one host)."""
    return time.monotonic()


def append_event(obs: Dict, ev: str, **fields) -> None:
    """Append one row to the sweep's event log.

    ``obs`` is the sweep's spec (:attr:`SweepObservability.spec`): ``t0``
    anchors the row's ``t`` and ``events_path`` names the log.  The
    parent, every worker and :class:`~repro.ledger.CachedBackend` write
    through here.  One ``O_APPEND`` write of one line — atomic for lines
    under ``PIPE_BUF``, so concurrent writers never interleave mid-row; an
    ``OSError`` is dropped, never failing the run.
    """
    row = {"ev": ev, "pid": os.getpid(), "t": round(now_s() - obs["t0"], 6)}
    row.update(fields)
    try:
        fd = os.open(obs["events_path"],
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (json.dumps(row, sort_keys=True) + "\n").encode())
        finally:
            os.close(fd)
    except OSError:
        pass


class SweepTrace:
    """The sweep's Chrome trace: parent dispatch instants + the log's fold.

    The parent stamps each task's dispatch; :meth:`chrome_trace` folds the
    event-log rows of the sweep.  Every freshly run task (a ``row_start``
    that is not ``cached`` and the end row of the same index and pid)
    gets, on its worker's pid track:

    * ``queue_wait`` from the dispatch to ``row_start``;
    * ``simulate`` from ``row_start`` to the end row less ``serialize_s``;
    * ``serialize``, only when the task was shipped (it carries
      ``serialize_s``);
    * a flow arrow from the parent's dispatch instant.

    The parent is pid 0.  Timestamps are host monotonic microseconds
    since ``t0``; on Linux ``CLOCK_MONOTONIC`` is system-wide, so parent
    and worker stamps share one axis.
    """

    def __init__(self) -> None:
        self.t0 = now_s()
        self._dispatch_us: Dict[int, int] = {}

    def dispatch(self, index: int) -> None:
        """Record that task ``index`` was handed to the backend now."""
        self._dispatch_us[index] = round((now_s() - self.t0) * 1e6)

    def chrome_trace(self, rows: List[Dict],
                     metadata: Optional[dict] = None) -> dict:
        """The trace of one sweep's event-log ``rows`` (from
        ``sweep_start`` on)."""
        from ..telemetry import EventTracer
        events = EventTracer(max_events=500_000)
        events.register_process(PARENT_PID, "sweep parent")
        events.register_track(PARENT_PID, 0, "dispatch")
        for index, ts in self._dispatch_us.items():
            events.instant("dispatch", ts, PARENT_PID, 0,
                           args={"index": index})
        workers: List[int] = []
        for index, pid, start, end in _fresh_tasks(rows):
            if pid not in workers:
                workers.append(pid)
                events.register_process(pid, f"worker {pid}")
                events.register_track(pid, 0, "tasks")
            begin, finish = _us(start), _us(end)
            ready = max(begin, finish - round(
                _as_float(end.get("serialize_s")) * 1e6))
            sent = self._dispatch_us.get(index, begin)
            args = {"index": index}
            events.complete("queue_wait", sent, begin - sent, pid, 0,
                            args=args)
            events.complete("simulate", begin, ready - begin, pid, 0,
                            args=args)
            if "serialize_s" in end:
                events.complete("serialize", ready, finish - ready, pid, 0,
                                args=args)
            fid = events.next_flow_id()
            events.emit("task", "s", sent, PARENT_PID, 0, flow=fid)
            events.emit("task", "f", sent, pid, 0, flow=fid, bind="e")
        meta = {"trace": "sweep", "clock": "host monotonic (us)",
                "workers": len(workers)}
        meta.update(metadata or {})
        return events.chrome_trace(metadata=meta)


class SweepObservability:
    """One sweep's observability surface, rooted in a directory.

    Built by ``run_grid(observe=...)`` (or the CLI); hands workers the
    :attr:`spec`, owns the parent-side :class:`SweepTrace`, and writes the
    end-of-sweep artifacts (trace, fleet metrics).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.trace = SweepTrace()
        #: what every task carries and :func:`append_event` reads: the
        #: clock origin and the log path (picklable primitives)
        self.spec = {"t0": self.trace.t0,
                     "events_path": os.path.join(root, EVENTS_NAME)}

    @classmethod
    def ensure(cls, observe) -> "SweepObservability":
        """Coerce ``run_grid``'s ``observe=`` argument (path or instance)."""
        if isinstance(observe, cls):
            return observe
        return cls(str(observe))

    def write_trace(self, metadata: Optional[dict] = None) -> str:
        """Fold this sweep's log rows into ``trace.json``."""
        rows = _this_sweep(_read_events(self.spec["events_path"]))
        path = os.path.join(self.root, TRACE_NAME)
        with open(path, "w") as f:
            json.dump(self.trace.chrome_trace(rows, metadata), f,
                      sort_keys=True)
        return path

    def write_metrics(self, registry) -> str:
        path = os.path.join(self.root, METRICS_NAME)
        with open(path, "w") as f:
            json.dump(registry.snapshot(), f, indent=1, sort_keys=True)
            f.write("\n")
        return path


# -- state ------------------------------------------------------------------
@dataclass
class SweepState:
    """Everything the progress panel needs, parsed from a sweep directory."""

    total: int = 0
    done: int = 0                    # ok + failed + resumed
    ok: int = 0
    failed: int = 0
    resumed: int = 0
    running: List[int] = field(default_factory=list)   # started, not finished
    rate: float = 0.0                # finished rows per second
    eta_s: Optional[float] = None
    elapsed_s: float = 0.0           # latest event timestamp seen
    finished: bool = False
    #: worker pid -> seconds since that worker's last row
    workers: Dict[int, float] = field(default_factory=dict)
    last_event: Optional[Dict] = None

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 0.0


def _read_events(path: str) -> List[Dict]:
    """Event rows from a live JSONL log, torn-tail tolerant.

    The log is appended to by concurrently running workers and read while
    the sweep is still writing, so the reader must survive anything a
    crash or a mid-append read can leave behind: a torn trailing line,
    a partial JSON value that *parses* but is not an object, or foreign
    garbage.  Malformed lines are skipped with one summary warning
    (matching the checkpoint-journal loader's hardening) — the monitor
    must never raise on its own event log.
    """
    rows: List[Dict] = []
    if not os.path.exists(path):
        return rows
    torn = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                torn += 1  # torn tail line mid-append
                continue
            if not isinstance(row, dict):
                torn += 1  # valid JSON but not an event object
                continue
            rows.append(row)
    if torn:
        warnings.warn(
            f"event log {path}: skipped {torn} torn or malformed "
            f"line(s)", RuntimeWarning, stacklevel=2)
    return rows


def _as_float(value, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _as_int(value, default: int = -1) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _this_sweep(rows: List[Dict]) -> List[Dict]:
    """The rows from the last ``sweep_start`` on: a directory reused by
    ``--resume`` holds every earlier sweep's rows before them."""
    start = 0
    for i, row in enumerate(rows):
        if row.get("ev") == "sweep_start":
            start = i
    return rows[start:]


def _us(row: Dict) -> int:
    """A row's ``t`` in integer microseconds."""
    return round(_as_float(row.get("t")) * 1e6)


def _fresh_tasks(rows: List[Dict]) -> Iterator[Tuple[int, int, Dict, Dict]]:
    """``(index, pid, row_start, end row)`` of every freshly run task.

    A ``cached`` row was served from the ledger by the parent and ran on
    no worker; a ``row_start`` with no end of the same index and pid (a
    task still running, or its worker died) yields nothing.
    """
    started: Dict[Tuple[int, int], Dict] = {}
    for row in rows:
        ev = row.get("ev")
        if row.get("cached") or ev not in ("row_start", "row_ok", "row_fail"):
            continue
        task = (_as_int(row.get("index")), _as_int(row.get("pid")))
        if ev == "row_start":
            started[task] = row
        elif task in started:
            yield task + (started.pop(task), row)


def read_state(root: str, now: Optional[float] = None) -> SweepState:
    """Fold the last sweep of a directory's event log into a SweepState.

    A worker is the pid of a non-cached ``row_start``.  Its age is the
    log's age (``now`` minus its mtime, the wall-clock instant of the
    latest row) plus how far that pid's last row lies behind the latest
    one.  ``now`` (``time.time()`` default) only affects worker ages, so
    tests pass a fixed value.
    """
    path = os.path.join(root, EVENTS_NAME)
    state = SweepState()
    started: Dict[int, bool] = {}
    last_t: Dict[int, float] = {}
    workers = set()
    for row in _this_sweep(_read_events(path)):
        ev = row.get("ev")
        t = _as_float(row.get("t", 0.0))
        state.elapsed_s = max(state.elapsed_s, t)
        state.last_event = row
        pid = _as_int(row.get("pid"))
        last_t[pid] = max(t, last_t.get(pid, t))
        if ev == "sweep_start":
            state.total = _as_int(row.get("total", 0), default=0)
        elif ev == "row_start":
            started[_as_int(row.get("index", -1))] = True
            if not row.get("cached"):
                workers.add(pid)
        elif ev == "row_ok":
            state.ok += 1
            started.pop(_as_int(row.get("index", -1)), None)
        elif ev == "row_fail":
            state.failed += 1
            started.pop(_as_int(row.get("index", -1)), None)
        elif ev == "row_resumed":
            state.resumed += 1
        elif ev == "sweep_end":
            state.finished = True
    state.running = sorted(started)
    state.done = state.ok + state.failed + state.resumed
    fresh = state.ok + state.failed  # resumed rows cost ~no time
    if fresh and state.elapsed_s > 0:
        state.rate = fresh / state.elapsed_s
    remaining = max(0, state.total - state.done)
    if state.rate > 0 and not state.finished:
        state.eta_s = remaining / state.rate
    try:
        log_age = max(0.0, (time.time() if now is None else now)
                      - os.path.getmtime(path))
    except OSError:  # no log at all, or it went away after the read
        return state
    for pid in sorted(workers):
        state.workers[pid] = log_age + state.elapsed_s - last_t[pid]
    return state


# -- rendering ---------------------------------------------------------------
def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_panel(state: SweepState, width: int = 64) -> str:
    """The live progress panel as plain text (pure function of ``state``)."""
    bar_w = max(10, width - 24)
    filled = int(round(state.fraction * bar_w))
    bar = "#" * filled + "-" * (bar_w - filled)
    status = "done" if state.finished else "running"
    lines = [
        f"sweep {status}: {state.done}/{state.total} rows "
        f"({state.ok} ok, {state.failed} failed, {state.resumed} resumed)",
        f"[{bar}] {state.fraction * 100:5.1f}%  "
        f"{state.rate:.2f} rows/s  ETA {_fmt_eta(state.eta_s)}",
    ]
    if state.running:
        shown = ", ".join(str(i) for i in state.running[:8])
        more = f" (+{len(state.running) - 8})" if len(state.running) > 8 else ""
        lines.append(f"in flight: rows {shown}{more}")
    if state.workers:
        parts = []
        for pid in sorted(state.workers):
            age = state.workers[pid]
            tag = f"{age:.1f}s"
            if age > STALE_AFTER_S:
                tag += " STALE"
            parts.append(f"{pid}:{tag}")
        lines.append("workers (pid:last row): " + "  ".join(parts))
    if state.last_event is not None:
        ev = state.last_event
        detail = " ".join(f"{k}={ev[k]}" for k in ("index", "error", "key")
                          if k in ev)
        lines.append(f"last event: {ev.get('ev')} {detail}".rstrip())
    return "\n".join(lines)


def monitor_loop(root: str, refresh: float = 1.0, follow: bool = True,
                 out=None, max_iterations: Optional[int] = None) -> SweepState:
    """Render the panel for ``root`` until the sweep ends (or once).

    ``follow=False`` renders a single snapshot and returns.  ``out``
    defaults to stdout; tests pass a list-appending callable.
    """
    import sys

    def _emit(text: str) -> None:
        if out is not None:
            out(text)
        else:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()

    iterations = 0
    while True:
        state = read_state(root)
        _emit(render_panel(state))
        iterations += 1
        if not follow or state.finished:
            return state
        if max_iterations is not None and iterations >= max_iterations:
            return state
        time.sleep(refresh)
        _emit("")  # blank separator between refreshes
