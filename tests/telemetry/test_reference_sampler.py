"""The one-walk interval sampler against the reference model it replaced.

``reference_sampler.py`` flattens the whole ``Stats`` tree to dotted keys
twice per sample and picks each column out of the difference by suffix; the
production sampler keeps eight column totals and reads the next ones off
the nodes.  Both are driven here over the same hypothesis-built tree —
nested namesakes (``a.vrmu.hits`` beside ``vrmu.hits``), near-misses
(``myvrmu.hits``, ``xhits``), batched cells with counts pending at a
sample, columns whose first counter appears mid-run, a ``reset`` — and
every row must be the same JSON bytes, the int ``0`` of a column nothing
matched against the ``0.0`` of one something did included.

``Stats.snapshot()`` / ``Stats.delta()`` live in the reference now; their
two unit tests moved here from ``tests/test_stats.py``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.counters import Stats
from repro.telemetry.sampler import IntervalSampler

from .reference_sampler import ReferenceSampler, delta, snapshot

PATHS = ((), ("vrmu",), ("a", "vrmu"), ("vrmu", "vrmu"), ("myvrmu",),
         ("bsi",), ("a", "bsi"), ("dcache",), ("a", "b", "dcache"),
         ("vrmu", "other"))
KEYS = ("hits", "misses", "spill_evictions", "fills", "dummy_fills",
        "spills", "context_switches", "xhits", "cycles")
#: namespaces that get a ``Stats.batch`` up front (when the case says so)
BATCHES = ((("vrmu",), ("accesses", "hits", "misses", "spill_evictions")),
           (("a", "bsi"), ("fills", "dummy_fills", "spills")),
           ((), ("context_switches", "flushed")))

ops = st.lists(st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(PATHS), st.sampled_from(KEYS),
              st.integers(0, 5)),
    st.tuples(st.just("pend"), st.integers(0, len(BATCHES) - 1),
              st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("tick"), st.integers(0, 25)),
    st.tuples(st.just("tick"), st.integers(0, 25)),
    st.tuples(st.just("reset")),
), max_size=60)


def node(root: Stats, path) -> Stats:
    for name in path:
        root = root.child(name)
    return root


def rows_json(sampler) -> list:
    return [json.dumps(row, sort_keys=True) for row in sampler.rows]


@settings(max_examples=300, deadline=None)
@given(ops=ops, batched=st.lists(st.booleans(), min_size=3, max_size=3),
       interval=st.integers(1, 12), with_extra=st.booleans())
def test_rows_are_the_reference_rows(ops, batched, interval, with_extra):
    root = Stats("core3")
    pending = [node(root, path).batch(*keys) if on else None
               for (path, keys), on in zip(BATCHES, batched)]
    extra = (lambda cycle: {"instructions": cycle % 7}) if with_extra else None
    # the production sampler reads first: it must fold the batches itself
    new = IntervalSampler(interval, root, core_id=3, extra=extra)
    old = ReferenceSampler(interval, root, core_id=3, extra=extra)
    cycle = 0
    for op in ops:
        if op[0] == "inc":
            node(root, op[1]).inc(op[2], op[3])
        elif op[0] == "pend":
            cells = pending[op[1]]
            if cells is not None:
                cells[op[2] % len(cells)] += op[3]
        elif op[0] == "reset":
            root.reset()
        else:
            cycle += op[1]
            new.on_cycle(cycle)
            old.on_cycle(cycle)
            assert rows_json(new) == rows_json(old)
    new.finalize(cycle + 3)
    old.finalize(cycle + 3)
    assert rows_json(new) == rows_json(old)
    assert new.to_jsonl() == "".join(r + "\n" for r in rows_json(old))


def test_unmatched_column_is_int_zero_matched_is_float():
    root = Stats("c")
    root.child("myvrmu").inc("hits", 4)       # near miss: matches nothing
    root.child("bsi").inc("fills", 0)         # a counter at 0.0 matches
    sampler = IntervalSampler(10, root)
    sampler.on_cycle(10)
    row = sampler.rows[0]
    assert row["vrmu_hits"] == 0 and isinstance(row["vrmu_hits"], int)
    assert row["fills"] == 0.0 and isinstance(row["fills"], float)
    root.child("a").child("vrmu").inc("hits", 2)   # the column appears
    root.child("vrmu").inc("hits", 3)              # ... twice
    sampler.on_cycle(20)
    assert sampler.rows[1]["vrmu_hits"] == 5.0
    assert isinstance(sampler.rows[1]["vrmu_hits"], float)


# -- Stats.snapshot() / Stats.delta(), moved from tests/test_stats.py --------

def test_snapshot_is_relative_and_immutable():
    s = Stats("core7")
    s.inc("cycles", 5)
    s.child("vrmu").inc("hits", 2)
    snap = snapshot(s)
    # keys relative to the node, not prefixed with its own name
    assert snap == {"cycles": 5, "vrmu.hits": 2}
    s.inc("cycles", 10)
    assert snap["cycles"] == 5  # a copy, not a view


def test_delta_against_snapshot():
    s = Stats("c")
    s.inc("cycles", 5)
    snap = snapshot(s)
    s.inc("cycles", 7)
    s.child("vrmu").inc("misses", 3)
    d = delta(s, snap)
    assert d["cycles"] == 7          # elapsed since snapshot
    assert d["vrmu.misses"] == 3     # created after snapshot -> vs zero
    # untouched counters stay present at 0 (stable column set)
    s2 = Stats("c2")
    s2.inc("k", 1)
    snap2 = snapshot(s2)
    assert delta(s2, snap2) == {"k": 0.0}
