"""Bound cells: one representation behind ``inc``/``observe`` and ``bind``.

``Counter.bind`` / ``Histogram.bind`` hand out the cell a series lives in so
a per-commit recorder canonicalises its labels once; everything else
(``inc``, ``observe``, ``merge_series``, ``series``) goes through the same
cells.  Checked here: a bound cell and keyword calls are interchangeable in
any interleaving, ``observe_into`` picks the bucket the old linear scan
picked, a series exists only once something was recorded into it, and a
label set that would not survive the snapshot text form is refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (Counter, Histogram, MetricsConfig, MetricsRegistry,
                           MetricsSession)

label_sets = st.sampled_from(({}, {"core": "0"}, {"core": "1"},
                              {"core": "0", "kind": "load"},
                              {"kind": "load", "core": "1"}))


def linear_bucket(bounds, value) -> int:
    """``Histogram.observe``'s bucket search as it was: first bound >= value,
    else the +Inf overflow bucket."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


# -- bind vs inc / observe ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(label_sets, st.integers(0, 9), st.booleans()),
                max_size=40))
def test_counter_bound_cell_is_the_series(steps):
    bound, plain = Counter("c"), Counter("c")
    for labels, amount, through_cell in steps:
        plain.inc(amount, **labels)
        if through_cell:
            bound.bind(**labels)[0] += amount
        else:
            bound.inc(amount, **labels)
        assert bound.value(**labels) == plain.value(**labels)
    assert bound.series() == plain.series()
    assert bound.total() == plain.total()
    assert all(isinstance(v, float) for v in bound.series().values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(label_sets, st.integers(-3, 300), st.booleans()),
                max_size=40))
def test_histogram_bound_slot_is_the_series(steps):
    bounds = (1, 2, 4, 16, 64.5, 256)
    bound, plain = Histogram("h", buckets=bounds), Histogram("h", buckets=bounds)
    for labels, value, through_slot in steps:
        plain.observe(value, **labels)
        if through_slot:
            bound.observe_into(bound.bind(**labels), value)
        else:
            bound.observe(value, **labels)
        assert bound.count(**labels) == plain.count(**labels)
        assert bound.mean(**labels) == plain.mean(**labels)
    assert bound.series() == plain.series()


def test_bind_returns_the_same_cell_in_any_label_order():
    c = Counter("c")
    assert c.bind(a=1, b="x") is c.bind(b="x", a="1")
    h = Histogram("h")
    assert h.bind(a=1, b="x") is h.bind(b="x", a="1")


def test_merge_lands_in_a_bound_cell():
    c = Counter("c")
    cell = c.bind(core="0")
    cell[0] += 2
    c.merge_series({'core="0"': 5, 'core="1"': 1})
    assert cell[0] == 7.0 and c.value(core="1") == 1.0
    h = Histogram("h", buckets=(1, 2))
    slot = h.bind(core="0")
    h.merge_series({'core="0"': {"counts": [1, 0, 2], "sum": 9.0,
                                 "count": 3}})
    assert slot == [[1, 0, 2], 9.0, 3]


# -- observe_into vs the linear scan -----------------------------------------

@pytest.mark.parametrize("bounds", [
    (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024),
    (0.5, 1.5, 2.25, 10.0),
    (7,),
])
def test_observe_into_picks_the_linear_scan_bucket(bounds):
    h = Histogram("h", buckets=bounds)
    values = [bounds[0] - 1, bounds[0] - 0.25, bounds[-1] + 1, bounds[-1] * 4]
    for lo, hi in zip(bounds, bounds[1:]):
        values.append((lo + hi) / 2)
    values += list(bounds) + [float(b) for b in bounds]
    for i, value in enumerate(values):
        slot = h.bind(v=i)
        h.observe_into(slot, value)
        assert slot[0].index(1) == linear_bucket(h.buckets, value), value
        assert slot[1:] == [float(value), 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 100, allow_nan=False), min_size=1,
                max_size=8, unique=True),
       st.floats(-20, 200, allow_nan=False))
def test_observe_into_float_bounds(bounds, value):
    h = Histogram("h", buckets=bounds)
    slot = h.bind()
    h.observe_into(slot, value)
    assert slot[0].index(1) == linear_bucket(h.buckets, value)


def test_nan_is_rejected_before_anything_is_recorded():
    # the linear scan filed NaN under +Inf, bisect would file it under the
    # first bound; neither is a bucket it belongs to
    h = Histogram("h", buckets=[1, 2])
    h.observe(1.5, core=0)
    for record in (lambda: h.observe(float("nan"), core=0),
                   lambda: h.observe_into(h.bind(core=0), float("nan"))):
        with pytest.raises(ValueError, match="NaN has no bucket"):
            record()
    assert h.series() == {'core="0"': {"counts": [0, 1, 0], "sum": 1.5,
                                       "count": 1}}


# -- a series exists once something was recorded ------------------------------

class _Op:
    def __init__(self, kind):
        self.is_load = kind == "load"
        self.is_store = kind == "store"
        self.is_branch = kind == "branch"


class _Core:
    core_id = 0
    observers = ()


def _commit(cm, kind, t_c):
    """One commit event carrying only what CoreMetrics reads."""
    cm.on_commit(None, _Op(kind), 0, 0, 0, 0, 0, 0, t_c, False, False)


def test_series_exists_once_written():
    session = MetricsSession(MetricsConfig(by_kind=True))
    cm = session.attach(_Core())
    series = lambda name: session.snapshot()["metrics"][name]["series"]
    # attached, nothing committed: the families exist, no series does
    assert series("sim_instructions_committed") == {}
    assert series("sim_commit_gap_cycles") == {}
    _commit(cm, "load", 5)
    _commit(cm, "load", 9)
    assert series("sim_instructions_committed") == {
        'core="0",kind="load"': 2.0}
    assert series("sim_commit_gap_cycles")['core="0"']["count"] == 2
    _commit(cm, "alu", 10)
    assert sorted(series("sim_instructions_committed")) == [
        'core="0",kind="alu"', 'core="0",kind="load"']


# -- labels that cannot cross a snapshot --------------------------------------

@pytest.mark.parametrize("labels", [
    {"axis": "a,b"}, {"axis": 'say "hi"'}, {"a,b": 1}, {"a=b": 1},
    {'a"b': 1}])
def test_unsnapshotable_label_rejected(labels):
    name = next(iter(labels))
    for call in (lambda: Counter("c").inc(**labels),
                 lambda: Counter("c").bind(**labels),
                 lambda: Histogram("h").observe(1, **labels),
                 lambda: MetricsRegistry().gauge("g").set(1, **labels)):
        with pytest.raises(ValueError, match="label") as err:
            call()
        assert repr(name) in str(err.value)
        assert "\n" not in str(err.value)


label_names = st.sampled_from(("core", "kind", "axis", "w"))
label_values = st.one_of(
    st.integers(-5, 5),
    st.text(st.characters(blacklist_characters=',"',
                          blacklist_categories=("Cs",)), max_size=6)
)
labels = st.dictionaries(label_names, label_values, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    counters=st.lists(st.tuples(st.sampled_from(("c1", "c2")), labels,
                                st.integers(0, 9)), max_size=8),
    gauges=st.lists(st.tuples(st.sampled_from(("g1", "g2")), labels,
                              st.floats(-9, 9, allow_nan=False)), max_size=8),
    hists=st.lists(st.tuples(st.sampled_from(("h1", "h2")), labels,
                             st.floats(-2, 99, allow_nan=False)), max_size=8))
def test_snapshot_round_trips(counters, gauges, hists):
    reg = MetricsRegistry()
    for name, lab, amount in counters:
        reg.counter(name, "help text").inc(amount, **lab)
    for name, lab, value in gauges:
        reg.gauge(name, agg="sum" if name == "g2" else "max").set(value, **lab)
    for name, lab, value in hists:
        reg.histogram(name, buckets=(1, 4.5, 16)).observe(value, **lab)
    snap = reg.snapshot()
    assert MetricsRegistry.from_snapshot(snap).snapshot() == snap
