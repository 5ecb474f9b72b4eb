"""The live sweep monitor: event-log folding, panel rendering, loop.

``read_state`` and ``render_panel`` are pure functions of a sweep
directory / state, so everything here runs on synthetic event logs with
a set mtime — no sweep, no terminal, no sleeping.
"""

import json
import os
import time

import pytest

from repro.system.monitor import (STALE_AFTER_S, SweepObservability,
                                  SweepState, append_event, monitor_loop,
                                  read_state, render_panel)


def _write_events(root, rows):
    with open(os.path.join(root, "sweep_events.jsonl"), "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


# -- read_state --------------------------------------------------------------
def test_state_from_event_log(tmp_path):
    root = str(tmp_path)
    _write_events(root, [
        {"ev": "sweep_start", "t": 0.0, "total": 6},
        {"ev": "row_resumed", "t": 0.1, "index": 0},
        {"ev": "row_start", "t": 0.2, "index": 1, "pid": 11},
        {"ev": "row_ok", "t": 1.0, "index": 1, "pid": 11},
        {"ev": "row_start", "t": 1.1, "index": 2, "pid": 12},
        {"ev": "row_fail", "t": 2.0, "index": 2, "pid": 12,
         "error": "DeadlockError"},
        {"ev": "row_start", "t": 2.1, "index": 3, "pid": 11},
    ])
    state = read_state(root, now=time.time())
    assert (state.total, state.ok, state.failed, state.resumed) == (6, 1, 1, 1)
    assert state.done == 3
    assert state.running == [3]
    assert not state.finished
    # rate counts fresh rows only (resumed rows cost ~nothing)
    assert state.rate == (2 / 2.1)
    assert state.eta_s is not None and state.eta_s > 0


def test_state_finished_and_empty(tmp_path):
    root = str(tmp_path)
    assert read_state(root).total == 0  # no log at all: all zeros
    _write_events(root, [
        {"ev": "sweep_start", "t": 0.0, "total": 1},
        {"ev": "row_start", "t": 0.1, "index": 0},
        {"ev": "row_ok", "t": 0.5, "index": 0},
        {"ev": "sweep_end", "t": 0.6, "ok": 1, "failed": 0},
    ])
    state = read_state(root)
    assert state.finished
    assert state.eta_s is None  # nothing left to estimate
    assert state.running == []


def test_torn_tail_line_is_skipped(tmp_path):
    root = str(tmp_path)
    _write_events(root, [{"ev": "sweep_start", "t": 0.0, "total": 2},
                         {"ev": "row_ok", "t": 0.4, "index": 0}])
    with open(os.path.join(root, "sweep_events.jsonl"), "a") as f:
        f.write('{"ev": "row_ok", "ind')  # a write torn mid-append
    with pytest.warns(RuntimeWarning, match="torn or malformed"):
        state = read_state(root)
    assert state.ok == 1  # the torn line neither counts nor raises


def test_torn_and_malformed_lines_warn_but_never_raise(tmp_path):
    """A live log read mid-append: torn tails, non-object JSON rows, and
    garbled field values must all be tolerated — one summary warning, no
    exception, and the well-formed rows still count."""
    root = str(tmp_path)
    _write_events(root, [{"ev": "sweep_start", "t": 0.0, "total": 3},
                         {"ev": "row_ok", "t": 0.4, "index": 0}])
    with open(os.path.join(root, "sweep_events.jsonl"), "a") as f:
        f.write("[1, 2, 3]\n")                 # valid JSON, not an object
        f.write('"row_ok"\n')                  # ditto
        # a dict row with garbage where numbers belong must not raise
        f.write(json.dumps({"ev": "row_ok", "t": "soon",
                            "index": None}) + "\n")
        f.write('{"ev": "row_ok", "ind')       # torn tail, no newline
    with pytest.warns(RuntimeWarning, match="skipped 3 torn or malformed"):
        state = read_state(root)
    assert state.total == 3
    assert state.ok == 2           # the garbled-value row still counts
    assert not state.finished


def test_clean_log_does_not_warn(tmp_path):
    root = str(tmp_path)
    _write_events(root, [{"ev": "sweep_start", "t": 0.0, "total": 1},
                         {"ev": "row_ok", "t": 0.2, "index": 0}])
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        state = read_state(root)
    assert state.ok == 1


def test_heartbeat_ages(tmp_path):
    """A worker's age is the log's age plus how far its last row lies
    behind the latest one; cached rows and parent rows make no worker."""
    root = str(tmp_path)
    _write_events(root, [
        {"ev": "sweep_start", "t": 0.0, "total": 4, "pid": 1},
        {"ev": "row_start", "t": 0.5, "index": 0, "pid": 11},
        {"ev": "row_start", "t": 0.6, "index": 1, "pid": 12},
        {"ev": "row_ok", "t": 1.0, "index": 1, "pid": 12},
        {"ev": "row_start", "t": 1.1, "index": 2, "pid": 1, "cached": True},
        {"ev": "row_ok", "t": 1.1, "index": 2, "pid": 1, "cached": True},
        {"ev": "row_ok", "t": 119.0, "index": 0, "pid": 11},
    ])
    now = time.time()
    path = os.path.join(root, "sweep_events.jsonl")
    os.utime(path, (now - 2.0, now - 2.0))
    state = read_state(root, now=now)
    assert sorted(state.workers) == [11, 12]
    assert state.workers[11] == pytest.approx(2.0, abs=0.1)
    assert state.workers[12] == pytest.approx(120.0, abs=0.1)


def test_state_folds_only_the_last_sweep(tmp_path):
    """A reused directory (``--resume``) appends a second sweep to the log:
    the panel shows that one alone, unfinished while it runs."""
    root = str(tmp_path)
    _write_events(root, [
        {"ev": "sweep_start", "t": 0.0, "total": 2, "pid": 1},
        {"ev": "row_start", "t": 0.1, "index": 0, "pid": 11},
        {"ev": "row_ok", "t": 0.5, "index": 0, "pid": 11},
        {"ev": "row_start", "t": 0.1, "index": 1, "pid": 11},
        {"ev": "row_ok", "t": 0.9, "index": 1, "pid": 11},
        {"ev": "sweep_end", "t": 1.0, "pid": 1},
        {"ev": "sweep_start", "t": 0.0, "total": 2, "pid": 2},
        {"ev": "row_resumed", "t": 0.01, "index": 0, "pid": 2},
        {"ev": "row_start", "t": 0.02, "index": 1, "pid": 21},
    ])
    state = read_state(root)
    assert (state.total, state.done, state.ok, state.resumed) == (2, 1, 0, 1)
    assert not state.finished
    assert state.running == [1]
    assert sorted(state.workers) == [21]
    assert "sweep running: 1/2 rows" in render_panel(state)


# -- render_panel ------------------------------------------------------------
def test_panel_renders_progress_and_workers():
    state = SweepState(total=10, done=4, ok=3, failed=1, running=[5, 6],
                       rate=2.0, eta_s=3.0, workers={11: 1.5, 12: 70.0})
    panel = render_panel(state)
    assert "4/10 rows" in panel
    assert "3 ok, 1 failed" in panel
    assert "2.00 rows/s" in panel and "ETA 3s" in panel
    assert "rows 5, 6" in panel
    assert "11:1.5s" in panel
    assert "12:70.0s STALE" in panel  # stale flag beyond STALE_AFTER_S
    assert 70.0 > STALE_AFTER_S


def test_panel_empty_state_no_division():
    panel = render_panel(SweepState())
    assert "0/0 rows" in panel
    assert "ETA --" in panel


def test_panel_eta_formats():
    hours = render_panel(SweepState(total=1, eta_s=7300))
    assert "2h01m" in hours
    minutes = render_panel(SweepState(total=1, eta_s=95))
    assert "1m35s" in minutes


# -- monitor_loop ------------------------------------------------------------
def test_monitor_loop_single_snapshot(tmp_path):
    root = str(tmp_path)
    _write_events(root, [{"ev": "sweep_start", "t": 0.0, "total": 1},
                         {"ev": "row_ok", "t": 0.3, "index": 0},
                         {"ev": "sweep_end", "t": 0.4}])
    frames = []
    state = monitor_loop(root, follow=False, out=frames.append)
    assert state.finished
    assert len(frames) == 1 and "sweep done" in frames[0]


# -- SweepObservability plumbing --------------------------------------------
def test_observability_surface(tmp_path):
    root = str(tmp_path / "swp")
    obs = SweepObservability(root)
    assert os.listdir(root) == []  # nothing but the log, once written
    append_event(obs.spec, "sweep_start", total=3)
    append_event(obs.spec, "sweep_end", ok=3, failed=0)
    state = read_state(root)
    assert state.total == 3 and state.finished
    assert os.listdir(root) == ["sweep_events.jsonl"]
    # the spec every task carries: the clock origin and the log path
    assert obs.spec == {"t0": obs.trace.t0,
                        "events_path": os.path.join(root,
                                                    "sweep_events.jsonl")}
    # ensure() passes instances through and coerces paths
    assert SweepObservability.ensure(obs) is obs
    assert SweepObservability.ensure(str(tmp_path / "other")).root.endswith(
        "other")
