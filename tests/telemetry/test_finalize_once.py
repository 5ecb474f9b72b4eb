"""``finalize()`` is once per run on each of the three sessions.

The driver finalizes every session after the run; a caller that holds the
result and finalizes again (a report script, a notebook cell run twice) used
to get a duplicate all-zero interval row from telemetry, doubled
``sim_vrmu_hits`` / ``sim_vrmu_misses`` from metrics, and re-emitted
``cycle_causes`` counter samples from profiling.  A second call does nothing:
every artifact is the one the first call left.
"""

import json

import pytest

from repro.system import RunConfig, run_config

CFG = RunConfig(workload="gather", core_type="virec", n_threads=8,
                n_per_thread=8,
                telemetry={"events": True, "interval": 100,
                           "pipeline_trace": True},
                metrics=True, profile=True)


def _artifacts(result) -> str:
    tel, met, prof = result.telemetry, result.metrics, result.profile
    return json.dumps({
        "trace": tel.chrome_trace(), "counts": tel.events.counts,
        "jsonl": tel.metrics_jsonl(), "report": tel.report(),
        "probes": [ct.vrmu_probe.summary() for ct in tel.cores],
        "metrics": met.snapshot(), "text": met.render_text(),
        "profile": prof.snapshot(), "collapsed": prof.collapsed(),
    }, sort_keys=True)


@pytest.mark.parametrize("session", ["telemetry", "metrics", "profile"])
def test_second_finalize_changes_nothing(session):
    result = run_config(CFG)            # the driver finalized once already
    before = _artifacts(result)
    rows = len(result.telemetry.interval_rows())
    events = len(result.telemetry.events)
    getattr(result, session).finalize()
    assert len(result.telemetry.interval_rows()) == rows
    assert len(result.telemetry.events) == events
    assert _artifacts(result) == before
