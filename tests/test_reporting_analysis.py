"""Tests for stats reporting exports and text plots."""

import json

from repro.stats.counters import Stats
from repro.stats.reporting import (
    compare,
    rows_to_csv,
    stats_to_csv,
    stats_to_dict,
    stats_to_json,
    text_histogram,
)


def sample_stats():
    s = Stats("core")
    s.inc("cycles", 100)
    s.child("dcache").inc("misses", 7)
    return s


def test_json_roundtrip():
    d = json.loads(stats_to_json(sample_stats()))
    assert d["core.cycles"] == 100
    assert d["core.dcache.misses"] == 7


def test_csv_export():
    text = stats_to_csv(sample_stats())
    lines = text.strip().splitlines()
    assert lines[0] == "counter,value"
    assert any("core.dcache.misses,7" in ln for ln in lines)


def test_rows_to_csv_union_columns():
    rows = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
    text = rows_to_csv(rows)
    header = text.splitlines()[0]
    assert header == "a,b,c"
    assert rows_to_csv([]) == ""


def test_compare_with_baseline():
    a, b = sample_stats(), sample_stats()
    b.inc("cycles", 100)  # 200 total
    table = compare({"base": a, "fast": b}, keys=["core.cycles"],
                    baseline="base")
    assert "2.00x" in table
    assert "base" in table and "fast" in table


def test_compare_missing_counter():
    a = Stats("x")
    a.inc("only_in_a")
    b = Stats("x")
    table = compare({"a": a, "b": b})
    assert "--" in table


def test_text_histogram():
    h = text_histogram([1, 1, 2, 5, 5, 5], bins=4, title="demo")
    assert "demo" in h and "#" in h
    assert text_histogram([], title="t").endswith("(no data)")
    assert "#" in text_histogram([3, 3, 3])  # degenerate range


# -- sparkline edge cases ----------------------------------------------------
def test_sparkline_empty_series():
    from repro.stats.reporting import sparkline
    assert sparkline([]) == ""


def test_sparkline_single_point_is_flat():
    from repro.stats.reporting import sparkline
    assert sparkline([5.0]) == "▁"


def test_sparkline_constant_series_is_flat():
    from repro.stats.reporting import sparkline
    # a zero span must not divide; every column sits on the baseline
    assert sparkline([3, 3, 3, 3]) == "▁" * 4


def test_sparkline_width_clamped():
    from repro.stats.reporting import sparkline
    assert len(sparkline([1, 2, 3], width=0)) == 1
    assert len(sparkline([1, 2, 3], width=-5)) == 1
    assert len(sparkline(range(100), width=10)) == 10


def test_sparkline_non_finite_samples():
    from repro.stats.reporting import sparkline
    nan, inf = float("nan"), float("inf")
    # NaN/inf render as baseline blocks and stay out of the autoscale
    out = sparkline([1.0, nan, 2.0, inf, -inf])
    assert len(out) == 5
    assert out[1] == out[3] == out[4] == "▁"
    assert out[2] == "█"  # 2.0 still tops the finite scale
    # an all-non-finite series degrades to a flat baseline, not a crash
    assert sparkline([nan, inf]) == "▁" * 2


def test_sparkline_pinned_scale_still_safe():
    from repro.stats.reporting import sparkline
    # caller-pinned lo == hi is another zero-span path
    assert sparkline([1, 2, 3], lo=5, hi=5) == "▁" * 3
