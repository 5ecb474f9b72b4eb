"""The metrics registry: typed families, labels, snapshot/merge contract."""

import json

import pytest

from repro.telemetry import (Counter, Gauge, Histogram, MetricsRegistry)


# -- counters ----------------------------------------------------------------
def test_counter_inc_and_labels():
    c = Counter("rows_total")
    c.inc()
    c.inc(2, status="ok")
    c.inc(status="ok")
    assert c.value() == 1
    assert c.value(status="ok") == 3
    assert c.value(status="fail") == 0
    assert c.total() == 4


def test_counter_rejects_negative():
    c = Counter("rows_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_label_order_is_canonical():
    c = Counter("x")
    c.inc(a=1, b=2)
    c.inc(b=2, a=1)
    assert c.value(a=1, b=2) == 2
    assert list(c.series()) == ['a="1",b="2"']


def test_bad_metric_name_rejected():
    for name in ("", "has space", 'q"uote', "br{ace"):
        with pytest.raises(ValueError):
            Counter(name)


# -- gauges ------------------------------------------------------------------
def test_gauge_agg_rules():
    for agg, expected in (("max", 9.0), ("sum", 12.0), ("last", 3.0)):
        a, b = Gauge("g", agg=agg), Gauge("g", agg=agg)
        a.set(9, core="0")
        b.set(3, core="0")
        a.merge_series(b.series())
        assert a.value(core="0") == expected, agg


def test_gauge_unknown_agg():
    with pytest.raises(ValueError):
        Gauge("g", agg="median")


# -- histograms --------------------------------------------------------------
def test_histogram_buckets_and_overflow():
    h = Histogram("lat", buckets=(1, 10, 100))
    for v in (0.5, 1, 5, 50, 5000):
        h.observe(v)
    assert h.count() == 5
    assert h.mean() == pytest.approx((0.5 + 1 + 5 + 50 + 5000) / 5)
    counts = h.series()[""]["counts"]
    assert counts == [2, 1, 1, 1]  # <=1, <=10, <=100, +Inf


def test_histogram_merge_is_bucketwise():
    a, b = Histogram("lat", buckets=(1, 10)), Histogram("lat", buckets=(1, 10))
    a.observe(0.5, core="0")
    b.observe(5, core="0")
    b.observe(500, core="0")
    a.merge_series(b.series())
    assert a.count(core="0") == 3
    assert a.series()['core="0"']["counts"] == [1, 1, 1]


def test_histogram_bucket_mismatch_rejected():
    a, b = Histogram("lat", buckets=(1, 10)), Histogram("lat", buckets=(1,))
    b.observe(3)
    with pytest.raises(ValueError):
        a.merge_series(b.series())


# -- registry ----------------------------------------------------------------
def test_family_constructors_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("c") is reg.counter("c")
    with pytest.raises(ValueError):
        reg.gauge("c")  # kind conflict
    with pytest.raises(ValueError):
        reg.gauge("g", agg="max") and reg.gauge("g", agg="sum")


def test_snapshot_is_sorted_json():
    reg = MetricsRegistry()
    reg.counter("zz").inc(core="1")
    reg.counter("aa").inc(core="0")
    snap = reg.snapshot()
    assert list(snap["metrics"]) == ["aa", "zz"]
    # a snapshot must survive a JSON round trip unchanged
    assert json.loads(json.dumps(snap, sort_keys=True)) == snap


def _loaded_registry(counter_val, gauge_val, hist_vals):
    reg = MetricsRegistry()
    reg.counter("rows").inc(counter_val, status="ok")
    reg.gauge("peak").set(gauge_val)
    h = reg.histogram("lat", buckets=(1, 10, 100))
    for v in hist_vals:
        h.observe(v)
    return reg


def test_merge_order_independent():
    """Counter/histogram merge is associative and commutative."""
    parts = [_loaded_registry(1, 3, [0.5]),
             _loaded_registry(2, 9, [5, 50]),
             _loaded_registry(4, 6, [5000])]
    snaps = [p.snapshot() for p in parts]
    fwd = MetricsRegistry()
    for s in snaps:
        fwd.merge(s)
    rev = MetricsRegistry()
    for s in reversed(snaps):
        rev.merge(s)
    assert fwd.snapshot() == rev.snapshot()
    assert fwd.counter("rows").value(status="ok") == 7
    assert fwd.gauge("peak").value() == 9  # max agg
    assert fwd.histogram("lat", buckets=(1, 10, 100)).count() == 4


def test_merge_creates_families_from_snapshot():
    snap = _loaded_registry(2, 5, [3]).snapshot()
    reg = MetricsRegistry.from_snapshot(snap)
    assert "rows" in reg and "peak" in reg and "lat" in reg
    assert reg.snapshot() == snap


def test_merge_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    other = MetricsRegistry()
    other.gauge("x").set(1)
    with pytest.raises(ValueError):
        reg.merge(other)


def test_merge_registry_and_empty():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    assert reg.merge({}) is reg
    other = MetricsRegistry()
    other.counter("x").inc(4)
    reg.merge(other)
    assert reg.counter("x").value() == 5


def test_render_text_exposition():
    reg = _loaded_registry(2, 5, [3])
    text = reg.render_text()
    assert "# TYPE rows counter" in text
    assert 'rows{status="ok"} 2' in text
    assert "lat_count 1" in text and "lat_sum 3" in text
