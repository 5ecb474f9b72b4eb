"""Tests for stats reporting exports and the register-cache monitor."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from helpers import build_gather_core  # noqa: E402

from repro.stats.counters import Stats  # noqa: E402
from repro.stats.reporting import (  # noqa: E402
    compare,
    rows_to_csv,
    stats_to_csv,
    stats_to_dict,
    stats_to_json,
    text_histogram,
)
from repro.virec import ViReCConfig, ViReCCore  # noqa: E402
from repro.virec.analysis import RegisterCacheMonitor  # noqa: E402


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


def test_register_cache_monitor_on_real_run():
    core, *_ = build_gather_core(ViReCCore, n_threads=4, n=64,
                                 virec=ViReCConfig(rf_size=20))
    monitor = RegisterCacheMonitor(core, period=8)
    core.run()
    report = monitor.finish()
    assert report.capacity == 20
    assert report.samples, "no occupancy samples collected"
    assert 0 < report.mean_occupancy <= 20
    # all four threads hold some share of the cache on average
    shares = [report.thread_share(t) for t in range(4)]
    assert all(s > 0.02 for s in shares)
    assert abs(sum(shares) - 1.0) < 0.2
    # evictions recorded with owner distances
    assert sum(report.eviction_owner_distance.values()) > 0
    assert report.mean_lifetime > 0
    assert "register cache capacity" in report.summary()


def test_monitor_sees_what_the_vrmu_does_and_keeps_an_attached_probe():
    """The monitor sits on ``vrmu.probe``: its counts are the VRMU's own
    (patching ``ts.evict``/``ts.insert`` would miss the inlined miss half),
    and a telemetry probe attached first still receives every event."""
    from repro.telemetry import TelemetrySession

    core, *_ = build_gather_core(ViReCCore, n_threads=4, n=64,
                                 virec=ViReCConfig(rf_size=16))
    session = TelemetrySession()
    session.attach(core)
    telemetry = session.cores[0].vrmu_probe
    assert core.vrmu.probe is telemetry
    monitor = RegisterCacheMonitor(core)
    assert core.vrmu.probe is monitor
    core.run()
    evictions = core.vrmu.tagstore.stats["evictions"]
    assert evictions > 0
    report = monitor.finish()
    assert sum(report.eviction_owner_distance.values()) == evictions
    assert len(report.lifetimes) == evictions
    assert sum(telemetry.eviction_causes.values()) == evictions
    assert telemetry.hits == core.vrmu.stats["hits"]
    assert telemetry.misses == core.vrmu.stats["misses"]


def test_monitor_lrc_evicts_far_threads():
    """The T bits should make most victims come from distant threads."""
    core, *_ = build_gather_core(ViReCCore, n_threads=4, n=96,
                                 virec=ViReCConfig(rf_size=16, policy="lrc"))
    monitor = RegisterCacheMonitor(core)
    core.run()
    report = monitor.finish()
    dist = report.eviction_owner_distance
    total = sum(dist.values())
    near = dist.get(0, 0) + dist.get(1, 0)
    far = total - near
    # most evictions come from threads further away in the schedule
    assert far >= near * 0.8


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
