"""Per-run metrics wiring: opt-in discipline, digest identity, recorders.

The two hard promises tested here:

* **Digest identity.**  The ``metrics`` RunConfig field is excluded from
  config digests when ``None``, so every pre-metrics checkpoint journal
  and manifest digest stays valid — asserted against literal digest
  values captured before the field existed.
* **Observational purity.**  A run with metrics enabled is cycle-identical
  to the same run without them (the instruments only read commit state).
"""

import pytest

from repro.telemetry import MetricsRegistry, TelemetryConfig
from repro.system import RunConfig, RunManifest, run_config
from repro.system.manifest import config_key

GATHER_VIREC = RunConfig(workload="gather", core_type="virec", n_threads=4,
                         n_per_thread=8, context_fraction=0.6)
STRIDE_FGMT = RunConfig(workload="stride", core_type="fgmt", n_threads=4,
                        n_per_thread=8)

#: digests captured before the ``metrics`` field was added to RunConfig;
#: if any of these change, existing checkpoints/manifests break
PRE_METRICS_KEYS = {
    "gather_virec": "8b3e8662c560cc8e",
    "stride_fgmt": "67f444c0002cd61d",
}
PRE_METRICS_MANIFEST_DIGEST = "0a91e5553e244e12"


# -- digest identity ---------------------------------------------------------
def test_config_keys_unchanged_by_metrics_field():
    assert config_key(GATHER_VIREC) == PRE_METRICS_KEYS["gather_virec"]
    assert config_key(STRIDE_FGMT) == PRE_METRICS_KEYS["stride_fgmt"]


def test_manifest_digest_unchanged_by_metrics_field():
    m = RunManifest()
    m.add(run_config(GATHER_VIREC))
    m.add(run_config(STRIDE_FGMT))
    assert m.results_digest == PRE_METRICS_MANIFEST_DIGEST


def test_enabled_metrics_changes_config_key_only_explicitly():
    on = RunConfig(workload="gather", core_type="virec", metrics=True)
    off = RunConfig(workload="gather", core_type="virec")
    assert config_key(on) != config_key(off)


# -- observational purity ----------------------------------------------------
def test_metrics_run_is_cycle_identical():
    base = RunConfig(workload="gather", core_type="virec", n_threads=4,
                     n_per_thread=8)
    plain = run_config(base)
    metered = run_config(RunConfig(**{**base.__dict__, "metrics": True}))
    assert metered.cycles == plain.cycles
    assert metered.instructions == plain.instructions
    assert metered.ipc == plain.ipc
    assert plain.metrics is None
    assert metered.metrics is not None


def test_commit_counter_tracks_committed_work():
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=4, n_per_thread=8, metrics=True))
    reg = r.metrics.registry
    committed = reg.get("sim_instructions_committed")
    # the counter sees every commit (incl. bookkeeping ops the result's
    # instruction total may classify differently), never fewer
    assert committed.total() >= r.instructions > 0
    assert reg.get("sim_cycles").value(core="0") == r.cycles
    assert reg.get("sim_vrmu_hits").total() > 0


def test_by_kind_labels():
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=2, n_per_thread=8,
                             metrics={"by_kind": True}))
    c = r.metrics.registry.get("sim_instructions_committed")
    kinds = {key.split('kind="')[1].rstrip('"')
             for key in c.series() if 'kind="' in key}
    assert {"load", "alu"} <= kinds


def test_snapshot_merges_into_fleet_registry():
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=2, n_per_thread=8, metrics=True))
    fleet = MetricsRegistry()
    fleet.merge(r.metrics.registry.snapshot())
    fleet.merge(r.metrics.registry.snapshot())
    assert (fleet.get("sim_instructions_committed").total()
            == 2 * r.metrics.registry.get("sim_instructions_committed").total())


# -- config validation -------------------------------------------------------
def test_metrics_config_from_spec():
    assert TelemetryConfig.from_spec(metrics=True) == TelemetryConfig(
        telemetry=False, profile=False, events=False)
    assert TelemetryConfig.from_spec(metrics={"by_kind": True}).by_kind
    for removed in ("commits", "commit_gaps", "summary"):
        with pytest.raises(ValueError, match="unknown metrics field"):
            TelemetryConfig.from_spec(metrics={removed: True})
    with pytest.raises(TypeError):
        TelemetryConfig.from_spec(metrics="yes")


def test_run_config_validates_metrics_eagerly():
    with pytest.raises(ValueError):
        RunConfig(workload="gather", metrics={"bogus": True})


def test_ooo_rejects_metrics():
    with pytest.raises(Exception) as err:
        run_config(RunConfig(workload="gather", core_type="ooo",
                             metrics=True))
    assert "metrics" in str(err.value)
