"""``finalize()`` is once per run on the observed-run session.

``run_config`` finalizes the session after the run; a caller that holds the
result and finalizes again (a report script, a notebook cell run twice)
through any of its three ``RunResult`` fields must not get a duplicate
all-zero interval row, doubled ``sim_vrmu_hits`` / ``sim_vrmu_misses`` or
re-emitted ``cycle_causes`` counter samples.  A second call does nothing:
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
    tel = result.telemetry
    return json.dumps({
        "trace": tel.chrome_trace(), "counts": tel.events.counts,
        "jsonl": tel.metrics_jsonl(), "report": tel.report(),
        "probes": [ct.vrmu_summary() for ct in tel.cores],
        "metrics": tel.registry.snapshot(),
        "text": tel.registry.render_text(),
        "profile": tel.profile_snapshot(), "collapsed": tel.collapsed(),
    }, sort_keys=True)


@pytest.mark.parametrize("field", ["telemetry", "metrics", "profile"])
def test_second_finalize_changes_nothing(field):
    result = run_config(CFG)            # which finalized once already
    before = _artifacts(result)
    rows = len(result.telemetry.interval_rows())
    events = len(result.telemetry.events)
    getattr(result, field).finalize()
    assert len(result.telemetry.interval_rows()) == rows
    assert len(result.telemetry.events) == events
    assert _artifacts(result) == before
