"""Live sweep observability: event log, heartbeats, progress panel.

A multi-hour grid under ``run_grid`` is a black box: the checkpoint
journal says what *finished*, but nothing says what is running right now,
how fast, or whether a worker has silently hung.  This module adds the
missing runtime surface, all rooted in one **sweep directory**:

``sweep_events.jsonl``
    Structured, append-only event log.  The parent writes lifecycle rows
    (``sweep_start``, ``row_resumed``, ``sweep_end``); each worker
    appends ``row_start`` / ``row_ok`` / ``row_fail`` rows directly (one
    atomic ``O_APPEND`` line each), so the log is live even while the
    parent blocks on the pool.
``heartbeats/<pid>.hb``
    Touched by each worker around every row; the monitor turns file
    mtimes into per-worker "last seen" ages, which is how a hung or
    OOM-killed worker becomes visible before the pool reports anything.
``trace.json``
    The merged parent+workers Chrome trace
    (:class:`~repro.exec.spans.SweepTrace`), written at sweep end.

:func:`read_state` folds the directory into a :class:`SweepState`;
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
from typing import Dict, List, Optional

__all__ = ["SweepObservability", "SweepState", "monitor_loop",
           "read_state", "render_panel"]

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
HEARTBEAT_DIR = "heartbeats"

#: a worker whose heartbeat is older than this is flagged in the panel
STALE_AFTER_S = 30.0


class SweepObservability:
    """One sweep's observability surface, rooted in a directory.

    Built by ``run_grid(observe=...)`` (or the CLI); hands workers their
    per-task obs spec, owns the parent-side :class:`SweepTrace`, and
    writes the end-of-sweep artifacts (trace, fleet metrics).
    """

    def __init__(self, root: str, spans: bool = True,
                 label: str = "sweep") -> None:
        from ..exec.spans import SweepTrace
        self.root = root
        self.spans = spans
        os.makedirs(root, exist_ok=True)
        self.heartbeat_dir = os.path.join(root, HEARTBEAT_DIR)
        os.makedirs(self.heartbeat_dir, exist_ok=True)
        self.events_path = os.path.join(root, EVENTS_NAME)
        self.trace = SweepTrace(label=label)

    @classmethod
    def ensure(cls, observe) -> "SweepObservability":
        """Coerce ``run_grid``'s ``observe=`` argument (path or instance)."""
        if isinstance(observe, cls):
            return observe
        return cls(str(observe))

    def task_obs(self) -> Dict:
        """The obs spec attached to one worker task (stamps t_submit now)."""
        from ..exec.spans import task_spec
        return task_spec(self.trace.t0, spans=self.spans,
                         events_path=self.events_path,
                         heartbeat_dir=self.heartbeat_dir)

    def append_event(self, ev: str, **fields) -> None:
        """Parent-side event row (same log, same atomic-append discipline)."""
        row = {"ev": ev, "pid": os.getpid(),
               "t": round(time.monotonic() - self.trace.t0, 6)}
        row.update(fields)
        try:
            fd = os.open(self.events_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, (json.dumps(row, sort_keys=True)
                              + "\n").encode())
            finally:
                os.close(fd)
        except OSError:
            pass

    def write_trace(self, metadata: Optional[dict] = None) -> str:
        path = os.path.join(self.root, TRACE_NAME)
        self.trace.write(path, metadata=metadata)
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
    #: worker pid -> heartbeat age in seconds (None: never beat)
    workers: Dict[int, Optional[float]] = field(default_factory=dict)
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


def read_state(root: str, now: Optional[float] = None) -> SweepState:
    """Fold a sweep directory's event log + heartbeats into a SweepState.

    ``now`` (``time.time()`` default) only affects heartbeat ages, so
    tests pass a fixed value.
    """
    state = SweepState()
    started: Dict[int, bool] = {}
    for row in _read_events(os.path.join(root, EVENTS_NAME)):
        ev = row.get("ev")
        state.elapsed_s = max(state.elapsed_s, _as_float(row.get("t", 0.0)))
        state.last_event = row
        if ev == "sweep_start":
            state.total = _as_int(row.get("total", 0), default=0)
        elif ev == "row_start":
            started[_as_int(row.get("index", -1))] = True
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
    if now is None:
        now = time.time()
    hb_dir = os.path.join(root, HEARTBEAT_DIR)
    if os.path.isdir(hb_dir):
        for name in sorted(os.listdir(hb_dir)):
            if not name.endswith(".hb"):
                continue
            try:
                pid = int(name[:-3])
                age = max(0.0, now - os.path.getmtime(
                    os.path.join(hb_dir, name)))
            except (ValueError, OSError):
                continue
            state.workers[pid] = age
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
            tag = "?" if age is None else f"{age:.1f}s"
            if age is not None and age > STALE_AFTER_S:
                tag += " STALE"
            parts.append(f"{pid}:{tag}")
        lines.append("workers (pid:last beat): " + "  ".join(parts))
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
