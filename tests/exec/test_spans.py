"""The sweep trace's spans: folded from the event log, one track per worker.

The worker is the recorder: one ``grid_worker`` task's two log rows
give its phases.  The unit half drives :class:`SweepTrace` with
synthetic event-log rows from two fake worker pids and JSON-parses the
merged Chrome trace; the integration half runs real two-worker and
serial grids and checks every span of the written ``trace.json``
against the rows of ``sweep_events.jsonl`` it was folded from.
"""

import json
import os

from repro.exec import grid_worker
from repro.system import RunConfig, config_key, run_grid
from repro.system.monitor import (PARENT_PID, SweepObservability,
                                  SweepTrace, append_event)

from ..helpers import time_limit


# -- the worker records, the fold measures ----------------------------------
def _worker_spans(tmp_path):
    """One task run by ``grid_worker`` in this process, shipped: its
    spans in the trace folded from the two rows it wrote."""
    obs = SweepObservability(str(tmp_path))
    cfg = RunConfig(workload="gather", core_type="banked", n_threads=2,
                    n_per_thread=8)
    obs.trace.dispatch(3)
    grid_worker((3, cfg, True, 0, None, None, config_key(cfg), obs.spec))
    with open(obs.write_trace()) as f:
        events = json.load(f)["traceEvents"]
    return {e["name"]: e for e in events if e["ph"] == "X"}


def test_recorder_measures_queue_wait_and_phases(tmp_path):
    spans = _worker_spans(tmp_path)
    assert set(spans) == {"queue_wait", "simulate", "serialize"}
    for e in spans.values():
        assert e["args"]["index"] == 3
        assert e["pid"] == os.getpid()
        assert e["ts"] >= 0 and e["dur"] >= 0
    assert spans["simulate"]["dur"] > 0


def test_recorder_spans_are_contiguous(tmp_path):
    spans = _worker_spans(tmp_path)
    order = ("queue_wait", "simulate", "serialize")
    for prev, cur in zip(order, order[1:]):
        assert spans[prev]["ts"] + spans[prev]["dur"] == spans[cur]["ts"]


# -- the fold (synthetic two-worker fleet) -----------------------------------
ROWS = [
    {"ev": "sweep_start", "t": 0.0, "pid": 1, "total": 3},
    {"ev": "row_start", "t": 0.000010, "pid": 101, "index": 0},
    {"ev": "row_start", "t": 0.000012, "pid": 202, "index": 1},
    {"ev": "row_ok", "t": 0.000070, "pid": 101, "index": 0,
     "serialize_s": 0.000005},
    {"ev": "row_fail", "t": 0.000060, "pid": 202, "index": 1,
     "serialize_s": 0.000004},
    # served from the ledger by the parent: no worker, no spans
    {"ev": "row_start", "t": 0.000080, "pid": 1, "index": 2,
     "cached": True},
    {"ev": "row_ok", "t": 0.000080, "pid": 1, "index": 2, "cached": True},
    {"ev": "sweep_end", "t": 0.000090, "pid": 1},
]


def _merged_trace():
    trace = SweepTrace()
    trace._dispatch_us = {0: 3, 1: 4, 2: 5}
    return trace.chrome_trace(ROWS, metadata={"rows": 3})


def _spans(ct):
    return {(e["args"]["index"], e["name"]): (e["pid"], e["ts"],
                                               e["ts"] + e["dur"])
            for e in ct["traceEvents"] if e["ph"] == "X"}


def test_merge_creates_one_pid_track_per_worker():
    ct = json.loads(json.dumps(_merged_trace()))
    events = ct["traceEvents"]
    pnames = {e["pid"]: e["args"]["name"] for e in events
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert pnames == {PARENT_PID: "sweep parent", 101: "worker 101",
                      202: "worker 202"}
    span_pids = {e["pid"] for e in events
                 if e["ph"] == "X" and e["name"] == "simulate"}
    assert span_pids == {101, 202}


def test_spans_are_folded_from_the_log_rows():
    spans = _spans(_merged_trace())
    assert spans == {
        (0, "queue_wait"): (101, 3, 10), (0, "simulate"): (101, 10, 65),
        (0, "serialize"): (101, 65, 70),
        (1, "queue_wait"): (202, 4, 12), (1, "simulate"): (202, 12, 56),
        (1, "serialize"): (202, 56, 60)}


def test_flow_arrows_link_dispatch_to_worker():
    events = _merged_trace()["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    ends = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(ends) == 2  # one arrow per fresh task
    assert all(e["pid"] == PARENT_PID for e in starts)
    assert {e["pid"] for e in ends} == {101, 202}
    assert ({e["id"] for e in starts} == {e["id"] for e in ends})
    assert all(e.get("bp") == "e" for e in ends)
    # the dispatch instants stay on the parent track, cached rows included
    dispatched = [e["args"]["index"] for e in events
                  if e["ph"] == "i" and e["name"] == "dispatch"]
    assert sorted(dispatched) == [0, 1, 2]


def test_unknown_dispatch_defaults_flow_origin():
    # no dispatch recorded for index 7: the arrow starts at row_start
    rows = [{"ev": "row_start", "t": 0.0001, "pid": 303, "index": 7},
            {"ev": "row_ok", "t": 0.00011, "pid": 303, "index": 7}]
    events = SweepTrace().chrome_trace(rows)["traceEvents"]
    s = [e for e in events if e["ph"] == "s"]
    assert s and s[0]["ts"] == 100
    # an unshipped task (no serialize_s) has no serialize span
    assert {e["name"] for e in events if e["ph"] == "X"} == {
        "queue_wait", "simulate"}


def test_an_unfinished_task_has_no_spans():
    rows = [{"ev": "row_start", "t": 0.0001, "pid": 303, "index": 7},
            {"ev": "row_fail", "t": 0.0002, "pid": 1, "index": 7}]
    events = SweepTrace().chrome_trace(rows)["traceEvents"]
    assert not [e for e in events if e["ph"] in ("X", "s", "f")]


def test_trace_metadata_and_roundtrip(tmp_path):
    obs = SweepObservability(str(tmp_path))
    for row in ROWS:
        fields = {k: v for k, v in row.items() if k not in ("ev", "t", "pid")}
        append_event(obs.spec, row["ev"], **fields)
    data = json.loads(open(obs.write_trace(metadata={"rows": 3})).read())
    # every row came from this process; its fresh tasks make it one worker
    assert data["otherData"]["workers"] == 1
    assert data["otherData"]["rows"] == 3


# -- integration: real observed grids ----------------------------------------
GRID = [RunConfig(workload="gather", core_type=ct, n_threads=2,
                  n_per_thread=8)
        for ct in ("banked", "virec", "fgmt", "swctx")]


def _check_against_log(root):
    """Every span lies where the task's log rows put it; returns names."""
    rows = [json.loads(line) for line in
            (root / "sweep_events.jsonl").read_text().splitlines()]
    events = json.loads((root / "trace.json").read_text())["traceEvents"]
    start = {(r["index"], r["pid"]): round(r["t"] * 1e6) for r in rows
             if r["ev"] == "row_start"}
    end = {(r["index"], r["pid"]): round(r["t"] * 1e6) for r in rows
           if r["ev"] in ("row_ok", "row_fail")}
    spans = {}
    for e in events:
        if e["ph"] == "X":
            spans.setdefault((e["args"]["index"], e["pid"]), {})[
                e["name"]] = (e["ts"], e["ts"] + e["dur"])
    assert set(spans) == set(start)
    for task, named in spans.items():
        assert named["queue_wait"][1] == start[task]
        for name in ("simulate", "serialize"):
            if name in named:
                lo, hi = named[name]
                assert start[task] <= lo <= hi <= end[task]
    flows = [e for e in events if e["ph"] == "f"]
    assert len(flows) == len(spans)
    return {name for named in spans.values() for name in named}, events


def test_observed_parallel_grid_traces_two_workers(tmp_path):
    with time_limit(300):
        rows = run_grid(GRID, jobs=2, observe=str(tmp_path))
    assert len(rows) == 4 and not rows.failures
    names, events = _check_against_log(tmp_path)
    assert names == {"queue_wait", "simulate", "serialize"}
    worker_pids = {e["pid"] for e in events
                   if e["ph"] == "X" and e["pid"] != PARENT_PID}
    assert len(worker_pids) >= 2, "expected spans from >=2 worker processes"
    assert any(e["ph"] == "s" for e in events)
    # the event log saw every row finish
    log = (tmp_path / "sweep_events.jsonl").read_text().splitlines()
    evs = [json.loads(line)["ev"] for line in log]
    assert evs.count("row_ok") == 4
    assert evs[-1] == "sweep_end"


def test_observed_serial_grid_has_no_serialize_span(tmp_path):
    with time_limit(300):
        rows = run_grid(GRID[:2], observe=str(tmp_path))
    assert len(rows) == 2 and not rows.failures
    names, _ = _check_against_log(tmp_path)
    assert names == {"queue_wait", "simulate"}
