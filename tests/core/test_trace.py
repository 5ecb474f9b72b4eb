"""Tests for the pipeline tracer."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import build_gather_core  # noqa: E402

from repro.core import BankedCore, PipelineTracer  # noqa: E402
from repro.core.trace import TraceRecord  # noqa: E402
from repro.virec import ViReCConfig, ViReCCore  # noqa: E402


def test_tracer_records_every_commit():
    core, *_ = build_gather_core(BankedCore, n_threads=2, n=16)
    tracer = PipelineTracer()
    core.observers = (tracer,)
    stats = core.run()
    assert len(tracer.records) == stats["instructions"]


def test_trace_timestamps_monotone_per_record():
    core, *_ = build_gather_core(BankedCore, n_threads=2, n=16)
    tracer = PipelineTracer()
    core.observers = (tracer,)
    core.run()
    for r in tracer.records:
        assert r.t_decode <= r.t_issue <= r.t_ex_done <= r.t_data <= r.t_commit


def test_commit_order_is_globally_monotone():
    core, *_ = build_gather_core(BankedCore, n_threads=4, n=32)
    tracer = PipelineTracer()
    core.observers = (tracer,)
    core.run()
    commits = [r.t_commit for r in tracer.records]
    assert commits == sorted(commits)


def test_mem_stalls_attributed_on_misses():
    core, *_ = build_gather_core(BankedCore, n_threads=1, n=16,
                                 mem_latency=200)
    tracer = PipelineTracer()
    core.observers = (tracer,)
    core.run()
    summary = tracer.stall_summary()
    assert summary["mem_stall_cycles"] > 100
    assert any("mem+" in r.dominant_stall for r in tracer.records)


def test_virec_register_stalls_attributed():
    core, *_ = build_gather_core(ViReCCore, n_threads=4, n=32,
                                 virec=ViReCConfig(rf_size=12))
    tracer = PipelineTracer()
    core.observers = (tracer,)
    core.run()
    assert tracer.stall_summary()["reg_stall_cycles"] > 0


def test_trace_formatting_and_limit():
    core, *_ = build_gather_core(BankedCore, n_threads=2, n=32)
    tracer = PipelineTracer(limit=10)
    core.observers = (tracer,)
    stats = core.run()
    assert len(tracer.records) == 10
    assert tracer.dropped == stats["instructions"] - 10
    text = tracer.format()
    assert "overwritten" in text and "C@" in text
    assert len(tracer.format(last=3).splitlines()) == 4  # 3 + ring note


def test_trace_ring_keeps_most_recent():
    """The ring must retain the *newest* records, not the oldest."""
    core, *_ = build_gather_core(BankedCore, n_threads=2, n=32)
    full = PipelineTracer()
    core.observers = (full,)
    core.run()

    core2, *_ = build_gather_core(BankedCore, n_threads=2, n=32)
    ring = PipelineTracer(limit=7)
    core2.observers = (ring,)
    core2.run()

    tail = [(r.tid, r.pc, r.t_commit) for r in full.records[-7:]]
    kept = [(r.tid, r.pc, r.t_commit) for r in ring.records]
    assert kept == tail
    commits = [r.t_commit for r in ring.records]
    assert commits == sorted(commits)  # chronological order preserved


def test_trace_ring_summary_counts_window():
    tracer = PipelineTracer(limit=3)
    for i in range(10):
        tracer.record(tid=0, pc=i, text="nop", t_decode=i, t_issue=i + 1,
                      t_ex_done=i + 2, t_data=i + 2, t_commit=i + 3)
    summary = tracer.stall_summary()
    assert summary["instructions"] == 3
    assert summary["dropped"] == 7
    assert [r.pc for r in tracer.records] == [7, 8, 9]


def test_trace_record_fields():
    r = TraceRecord(tid=1, pc=5, text="add x0, x0, #1", t_decode=10,
                    t_issue=11, t_ex_done=12, t_data=12, t_commit=13)
    assert r.decode_stall == 0 and r.mem_stall == 0
    assert r.dominant_stall == ""
    assert "add x0" in r.format()
