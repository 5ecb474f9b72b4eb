"""VRMU probes, interval sampler, host profiler, report, and CLI verbs."""

import json

import pytest

from repro.stats.counters import Stats
from repro.stats.reporting import render_intervals, sparkline
from repro.system import RunConfig, run_config
from repro.telemetry import IntervalSampler, TelemetryConfig
from repro.telemetry.probes import _log2_bucket
from repro.system.profiler import HostProfiler


def _virec_run(**telemetry):
    cfg = RunConfig(workload="gather", core_type="virec", n_threads=4,
                    n_per_thread=16, telemetry=telemetry or {"events": True})
    return run_config(cfg)


# -- the register-cache record -----------------------------------------------

def test_summary_reads_the_vrmu_counts():
    r = _virec_run()
    ct = r.telemetry.cores[0]
    vrmu = r.stats.child("core0").child("vrmu")
    s = ct.vrmu_summary()
    assert (s["hits"], s["misses"]) == (vrmu["hits"], vrmu["misses"])
    assert type(s["hits"]) is int and type(s["misses"]) is int


def test_a_hit_dispatches_only_to_a_hit_recording_sink():
    """The per-operand hit reaches the bus only with ``verbose_hits``,
    and then once per hit the VRMU counts."""
    quiet = _virec_run()
    assert quiet.telemetry.cores[0].core.vrmu.hit_sinks == ()
    assert "vrmu_hit" not in quiet.telemetry.events.counts
    loud = _virec_run(events=True, verbose_hits=True)
    ct = loud.telemetry.cores[0]
    assert ct.core.vrmu.hit_sinks == (ct,)
    assert loud.telemetry.events.counts["vrmu_hit"] == \
        ct.vrmu_summary()["hits"] > 0
    assert loud.cycles == quiet.cycles


def test_eviction_causes_taxonomy():
    r = _virec_run()
    causes = r.telemetry.cores[0].eviction_causes
    assert causes, "undersized RF run must evict"
    assert set(causes) <= {"capacity", "thread", "group", "prefetch",
                           "task-drop"}


def test_residency_histogram_totals():
    r = _virec_run()
    ct = r.telemetry.cores[0]
    s = ct.vrmu_summary()
    # finalize() closed still-resident spans, so the histogram covers
    # every insertion
    assert sum(ct.residency_hist.values()) >= sum(
        ct.eviction_causes.values())
    assert s["hit_rate"] == pytest.approx(r.rf_hit_rate)
    assert all(v > 0 for v in s["peak_occupancy"].values())


def test_occupancy_by_thread_matches_resident_counts():
    r = _virec_run()
    core = r.telemetry.cores[0].core
    occ = core.vrmu.tagstore.occupancy_by_thread()
    for tid, count in occ.items():
        assert count == core.vrmu.tagstore.resident_count(tid)


def test_log2_bucket():
    assert _log2_bucket(0) == 0
    assert _log2_bucket(1) == 0
    assert _log2_bucket(2) == 1
    assert _log2_bucket(3) == 1
    assert _log2_bucket(1024) == 10


# -- interval sampler --------------------------------------------------------

def test_sampler_partial_tail():
    s = Stats("core0")
    sampler = IntervalSampler(100, s)
    s.inc("instructions", 5)
    sampler.on_cycle(100)
    s.inc("instructions", 2)
    sampler.finalize(130)
    assert [r["cycle"] for r in sampler.rows] == [100, 130]
    assert sampler.rows[-1]["elapsed"] == 30


def test_sampler_catches_up_over_skipped_intervals():
    s = Stats("core0")
    sampler = IntervalSampler(10, s)
    sampler.on_cycle(35)  # commit clock jumped 3.5 intervals
    assert [r["cycle"] for r in sampler.rows] == [10, 20, 30]


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        IntervalSampler(0, Stats())


# -- config ------------------------------------------------------------------

def test_config_from_spec_roundtrip():
    tc = TelemetryConfig(interval=50, metrics=False, profile=False)
    assert TelemetryConfig.from_spec({"interval": 50}) == tc
    assert TelemetryConfig.from_spec(
        {"interval": 50}, True, True) == TelemetryConfig(interval=50)
    # without the telemetry field there is no ring to record into
    assert not TelemetryConfig.from_spec(profile=True).events
    for removed in ("vrmu_probes", "flow_events"):
        with pytest.raises(ValueError, match="unknown telemetry field"):
            TelemetryConfig.from_spec({removed: True})
    with pytest.raises(TypeError):
        TelemetryConfig.from_spec("yes")
    with pytest.raises(TypeError):
        TelemetryConfig.from_spec(True)
    with pytest.raises(ValueError):
        TelemetryConfig(interval=-1)


# -- host profiler -----------------------------------------------------------

def test_host_profiler_phases():
    p = HostProfiler()
    with p.phase("build"):
        pass
    with p.phase("simulate"):
        pass
    with p.phase("simulate"):  # accumulates
        pass
    d = p.as_dict(instructions=1000, cycles=2000, events=30)
    assert set(d["phases_s"]) == {"build", "simulate"}
    assert d["total_s"] >= 0
    assert d["instr_per_s"] is not None
    assert d["events_per_s"] is not None


def test_run_result_carries_host_profile():
    r = _virec_run()
    prof = r.host_profile
    assert {"build", "simulate", "check"} <= set(prof["phases_s"])
    assert prof["instr_per_s"] > 0
    # collected even with telemetry off
    r2 = run_config(RunConfig(workload="gather", core_type="banked",
                              n_threads=2, n_per_thread=8))
    assert r2.host_profile["instr_per_s"] > 0


def test_manifest_records_host_profiles(tmp_path):
    from repro.system.manifest import RunManifest

    r = _virec_run()
    m = RunManifest()
    m.add(r)
    digest_with = m.results_digest
    assert m.host_profiles[0]["instr_per_s"] > 0
    # host profiles are machine-dependent and must not affect the digest
    m2 = RunManifest()
    m2.add(r)
    m2.host_profiles[0] = {"total_s": 999.0}
    assert m2._digest() == digest_with
    path = tmp_path / "manifest.json"
    m.save(str(path))
    loaded = RunManifest.load(str(path))
    assert loaded.host_profiles[0]["instr_per_s"] == \
        m.host_profiles[0]["instr_per_s"]


# -- report & sparklines -----------------------------------------------------

def test_session_report_contents():
    r = _virec_run(events=True, interval=100, pipeline_trace=True)
    text = r.telemetry.report()
    assert "telemetry report" in text
    assert "hit rate" in text
    assert "eviction causes" in text
    assert "pipeline stalls" in text
    assert "interval samples" in text


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1, 1, 1]) == "▁▁▁"
    line = sparkline(list(range(100)), width=10)
    assert len(line) == 10
    assert line[0] == "▁" and line[-1] == "█"


def test_render_intervals_skips_missing_columns():
    rows = [{"cycle": 10, "ipc": 0.5}, {"cycle": 20, "ipc": 0.7}]
    text = render_intervals(rows, ["ipc", "not_a_column"])
    assert "ipc" in text and "not_a_column" not in text
    assert render_intervals([], ["ipc"]) == "(no interval samples)"


# -- CLI verbs ---------------------------------------------------------------

def test_cli_trace(tmp_path, capsys):
    from repro.cli import main

    rc = main(["run", "--workload", "gather", "--core", "virec",
               "--threads", "4", "--per-thread", "12",
               "--observe", "events,intervals,pipeline", "--interval", "100",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "perfetto" in printed.lower()
    assert "telemetry report" in printed
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert (tmp_path / "intervals.jsonl").read_text().splitlines()


def test_cli_timeline(tmp_path, capsys):
    from repro.cli import main

    rc = main(["run", "--workload", "gather", "--core", "virec",
               "--threads", "4", "--per-thread", "16",
               "--observe", "intervals", "--interval", "200",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ipc" in printed and "vrmu_hit_rate" in printed
    assert "intervals" in printed
    assert (tmp_path / "intervals.jsonl").read_text().splitlines()
