"""Cycle attribution: the exact-sum taxonomy invariant and cycle identity.

The two hard guarantees of the observed run's ``profile`` part:

* **exhaustive**: on every supported core type,
  ``sum(per-cause attributed cycles) == total core cycles`` — exactly,
  no residual bucket, enforced per run by the driver's run-end
  ``TelemetrySession.verify()`` (raising :class:`~repro.errors.AttributionError`);
* **observational**: a profile-on run is cycle- and stats-identical to
  the same run with profiling off (the attributor classifies timestamps
  the engine already computed; it never alters one).
"""

import json

import pytest

from repro.errors import AttributionError
from repro.telemetry import CAUSES, SCHEDULER_PC
from repro.system import RunConfig, run_config

#: every timeline-engine core type (the ooo host is covered separately by
#: its own always-on cycle_causes accounting below)
TIMELINE_CORES = ("inorder", "banked", "swctx", "virec", "nsf",
                  "prefetch-full", "prefetch-exact", "fgmt")


def _cfg(core_type, **kw):
    kw.setdefault("workload", "gather")
    kw.setdefault("n_threads", 1 if core_type == "inorder" else 4)
    kw.setdefault("n_per_thread", 16)
    return RunConfig(core_type=core_type, **kw)


# -- the taxonomy-invariant suite -------------------------------------------
@pytest.mark.parametrize("core_type", TIMELINE_CORES)
def test_every_cycle_attributed_exactly(core_type):
    r = run_config(_cfg(core_type, profile=True))
    session = r.profile
    assert session is not None and session.attributors
    for attributor in session.attributors:
        assert attributor.attributed == attributor.core.commit_tail
    snap = session.profile_snapshot()
    assert sum(snap["causes"].values()) == sum(
        c["cycles"] for c in snap["cores"])
    for core in snap["cores"]:
        assert sum(core["causes"].values()) == core["cycles"]


@pytest.mark.parametrize("core_type", ["virec", "swctx", "fgmt"])
@pytest.mark.parametrize("workload", ["spmv", "stride", "histogram"])
def test_invariant_across_kernels(core_type, workload):
    r = run_config(_cfg(core_type, workload=workload, profile=True,
                        context_fraction=0.5))
    for attributor in r.profile.attributors:
        assert attributor.attributed == attributor.core.commit_tail


def test_invariant_multicore():
    r = run_config(_cfg("virec", workload="spmv", n_cores=2, n_per_thread=8,
                        profile=True))
    assert len(r.profile.attributors) == 2
    for attributor in r.profile.attributors:
        assert attributor.attributed == attributor.core.commit_tail


def test_ooo_cycle_causes_account_for_every_cycle():
    """The ooo host's always-on commit-clock accounting is exhaustive too."""
    r = run_config(RunConfig(workload="gather", core_type="ooo",
                             n_threads=1, n_per_thread=32))
    flat = dict(r.stats.flat())
    native = [v for k, v in flat.items()
              if k.endswith(".cycles") and "core" in k]
    causes = {k: v for k, v in flat.items() if "cycle_causes" in k}
    assert causes and native
    assert sum(causes.values()) == sum(native)


def test_violation_raises_attribution_error():
    r = run_config(_cfg("banked", profile=True))
    attributor = r.profile.attributors[0]
    attributor.totals[0] += 1  # manufacture a hole in the accounting
    with pytest.raises(AttributionError, match="attributed"):
        r.profile.verify()


# -- cycle identity ----------------------------------------------------------
@pytest.mark.parametrize("core_type", TIMELINE_CORES)
def test_profile_does_not_change_cycles(core_type):
    base = _cfg(core_type)
    off = run_config(base)
    on = run_config(base.with_(profile=True))
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert on.stats.as_dict() == off.stats.as_dict()


def test_profile_with_telemetry_and_sanitizer_identical():
    base = _cfg("virec", n_per_thread=32, context_fraction=0.6)
    off = run_config(base)
    on = run_config(base.with_(profile=True,
                               telemetry={"events": True, "interval": 64},
                               sanitize=True))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


# -- opt-in discipline -------------------------------------------------------
def test_profile_off_wires_nothing():
    assert run_config(_cfg("virec")).profile is None


def test_ooo_rejects_profile():
    cfg = RunConfig(workload="gather", core_type="ooo", n_threads=1,
                    n_per_thread=16, profile=True)
    with pytest.raises(ValueError, match="ooo"):
        run_config(cfg)


def test_unknown_profile_field_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown profile field"):
        RunConfig(profile={"atribution": True})


def test_profile_none_keeps_digests_stable():
    from repro.system.manifest import config_key, config_payload
    cfg = _cfg("virec")
    assert "profile" not in config_payload(cfg)
    assert config_key(cfg) != config_key(cfg.with_(profile={}))


# -- artifacts ---------------------------------------------------------------
def test_snapshot_shape_and_json_round_trip():
    r = run_config(_cfg("virec", profile=True))
    snap = r.profile.profile_snapshot()
    assert snap["taxonomy"] == list(CAUSES)
    assert snap["cycles"] == r.cycles
    again = json.loads(json.dumps(snap))
    assert again == snap


def test_hotspots_are_source_mapped_and_sorted():
    r = run_config(_cfg("banked", profile=True))
    rows = r.profile.hotspots()
    assert rows
    cycles = [row["cycles"] for row in rows]
    assert cycles == sorted(cycles, reverse=True)
    labels = {row["label"] for row in rows}
    assert "loop" in labels  # the gather kernel's loop body dominates
    sched = [row for row in rows if row["pc"] == SCHEDULER_PC]
    assert sched and sched[0]["label"] == "<scheduler>"


def test_collapsed_flamegraph_parses_and_sums():
    r = run_config(_cfg("swctx", profile=True))
    folded = r.profile.collapsed()
    assert folded.endswith("\n")
    total = 0
    for line in folded.splitlines():
        frames, _, count = line.rpartition(" ")
        assert frames and frames.count(";") >= 1
        total += int(count)  # a non-integer trailer would raise here
    assert total == sum(a.attributed for a in r.profile.attributors)


def test_counter_track_merges_into_chrome_trace(tmp_path):
    r = run_config(_cfg("virec", n_per_thread=32, profile=True,
                        telemetry={"events": True}))
    out = tmp_path / "trace.json"
    r.telemetry.write_chrome_trace(str(out))
    events = json.loads(out.read_text())["traceEvents"]
    tracks = [e for e in events if e.get("name") == "cycle_causes"]
    assert tracks and all(e["ph"] == "C" for e in tracks)
    merged = {}
    for e in tracks:
        for cause, n in e["args"].items():
            merged[cause] = merged.get(cause, 0) + n
    assert sum(merged.values()) == r.profile.attributors[0].attributed


def test_strip_result_folds_profile_to_snapshot():
    from repro.exec.workers import strip_result
    r = run_config(_cfg("banked", profile=True))
    snap = r.profile.profile_snapshot()
    stripped = strip_result(r)
    assert isinstance(stripped.profile, dict)
    assert stripped.profile == snap


# -- spill-held port attribution (dead-hint policy axis) ---------------------
def _spill_writeback_cycles(policy):
    cfg = _cfg("virec", n_threads=8, n_per_thread=32,
               context_fraction=0.4, seed=7, profile=True, policy=policy)
    r = run_config(cfg)
    for attributor in r.profile.attributors:
        assert attributor.attributed == attributor.core.commit_tail
    return r.profile.profile_snapshot()["causes"].get("spill_writeback", 0)


def test_virec_attributes_spill_held_port_waits():
    """ViReC fill waits caused by spill port occupancy land in
    spill_writeback, not vrmu_refill (the BSI port is shared)."""
    assert _spill_writeback_cycles("lrc") > 0


def test_dead_elide_cuts_spill_writeback_attribution():
    """Eliding dead writebacks frees the port: the spill_writeback slice
    shrinks relative to plain LRC on a register-pressure-bound run."""
    assert _spill_writeback_cycles("dead-elide") < _spill_writeback_cycles("lrc")
