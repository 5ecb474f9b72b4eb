"""One observed run read three ways: on every core of a two-core node, the
event ring, the metric cells and the attribution tiles report one number.

The session's ``finalize`` writes each core's ``cycle_causes`` samples into
the ring and folds the summary gauges; these checks pin what it must leave
behind, per core, whichever part an artifact comes from.
"""

import pytest

from repro.system import RunConfig, run_config

CFG = RunConfig(workload="gather", core_type="virec", n_cores=2,
                n_threads=4, n_per_thread=16, context_fraction=0.6,
                telemetry={"events": True}, metrics=True, profile=True)


@pytest.fixture(scope="module")
def run():
    return run_config(CFG)


def _track(trace, pid, name):
    """The tid of core ``pid``'s track called ``name``."""
    (tid,) = [e["tid"] for e in trace["traceEvents"]
              if e["ph"] == "M" and e["name"] == "thread_name"
              and e["pid"] == pid and e["args"]["name"] == name]
    return tid


def test_cycle_cause_samples_sum_to_each_cores_attribution(run):
    trace = run.telemetry.chrome_trace()
    snap = run.profile.profile_snapshot()
    assert [c["core"] for c in snap["cores"]] == [0, 1]
    for core in snap["cores"]:
        pid = core["core"]
        tid = _track(trace, pid, "cycle causes")
        samples = [e for e in trace["traceEvents"] if e["ph"] != "M"
                   and e["pid"] == pid and e["tid"] == tid]
        assert samples and all(e["name"] == "cycle_causes"
                               and e["ph"] == "C" for e in samples)
        total = sum(n for e in samples for n in e["args"].values())
        assert total == sum(core["causes"].values()) == core["cycles"]


def test_vrmu_hits_are_one_number_per_core(run):
    gauge = run.metrics.registry.get("sim_vrmu_hits")
    assert len(run.telemetry.cores) == 2
    for ct in run.telemetry.cores:
        hits = ct.core.vrmu.stats["hits"]
        assert hits > 0
        assert gauge.value(core=str(ct.pid)) == hits
        assert ct.vrmu_summary()["hits"] == hits
