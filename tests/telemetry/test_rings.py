"""Both bounded rings at small capacities: what a reader sees after a wrap.

``EventTracer`` and ``PipelineTracer`` store what the engine hands them in a
``deque(maxlen=...)`` and build dicts / ``TraceRecord`` objects when read.
At capacity 1, 2 and 7 with 0-30 records: the retained ones are the newest,
in emission order; ``dropped`` is what was overwritten; ``counts`` includes
the overwritten; ``len()`` is what is retained.
"""

import pytest

from repro.core.trace import PipelineTracer, TraceRecord
from repro.telemetry.events import EventTracer

CAPACITIES = (1, 2, 7)
N_RECORDS = tuple(range(0, 31))


def _emit(tracer: EventTracer, i: int) -> dict:
    """Emit event ``i`` through a wrapper chosen by ``i``; the dict a reader
    must get back for it."""
    name = ("run", "vrmu_miss", "custom")[i % 3]
    cat = ("sched", "vrmu", "misc")[i % 3]
    args = {"i": i} if i % 2 else None
    base = {"name": name, "ts": 10 * i, "pid": i % 2, "tid": i % 5,
            "cat": cat}
    if i % 4 == 0:
        tracer.complete(name, 10 * i, 3 - i, i % 2, i % 5, args=args)
        want = {**base, "ph": "X", "dur": max(0, 3 - i)}
    elif i % 4 == 1:
        tracer.instant(name, 10 * i, i % 2, i % 5, args=args)
        want = {**base, "ph": "i"}
    else:
        tracer.emit(name, "f", 10 * i, i % 2, i % 5, args=args, flow=i,
                    bind="e")
        want = {**base, "ph": "f", "id": i, "bp": "e"}
    if args:
        want["args"] = args
    return want


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("n", N_RECORDS)
def test_event_ring(capacity, n):
    tracer = EventTracer(max_events=capacity)
    want = [_emit(tracer, i) for i in range(n)]
    kept = want[-capacity:] if n else []
    assert tracer.events == kept
    assert len(tracer) == len(kept)
    assert tracer.dropped == n - len(kept)
    assert sum(tracer.counts.values()) == n
    assert tracer.counts == {name: sum(1 for w in want if w["name"] == name)
                             for name in {w["name"] for w in want}}
    trace = tracer.chrome_trace()
    assert trace["otherData"]["dropped_events"] == n - len(kept)
    body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    assert body == sorted(kept, key=lambda e: (e["pid"], e["tid"], e["ts"]))


def test_event_args_are_kept_by_reference():
    tracer = EventTracer(max_events=2)
    args = {"k": 1}
    tracer.instant("run", 0, 0, 0, args=args)
    assert tracer.events[0]["args"] is args


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("n", N_RECORDS)
def test_pipeline_ring(capacity, n):
    tracer = PipelineTracer(limit=capacity)
    want = []
    for i in range(n):
        fields = (i % 3, i, f"op{i}", i, i + 1 + i % 4, i + 6, i + 6 + i % 9,
                  i + 20)
        tracer.record(*fields)
        want.append(TraceRecord(*fields))
    kept = want[-capacity:] if n else []
    assert tracer.records == kept
    assert tracer.dropped == n - len(kept)
    summary = tracer.stall_summary()
    assert summary["instructions"] == len(kept)
    assert summary["dropped"] == n - len(kept)
    assert summary["mem_stall_cycles"] == sum(r.mem_stall for r in kept)
    lines = tracer.format().splitlines()
    assert lines[:len(kept)] == [r.format() for r in kept]
    assert len(lines) == len(kept) + (1 if n > capacity else 0)
    assert tracer.format(last=1).splitlines()[:1] == [
        r.format() for r in kept[-1:]]
