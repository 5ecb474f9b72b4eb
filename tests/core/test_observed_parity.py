"""Every timeline core type feeds every sink: what an observed run reports
must add up to what the run did.

Both reference bodies (``TimelineCore._reference_step`` and the barrel
core's ``FGMTCore._reference_step``) dispatch all six bus slots; a body
that skips one still runs cycle-identically and writes plausible-looking
artifacts, so the artifacts are checked against the run's own totals.
"""

import pytest

from repro.system import RunConfig, run_config

TIMELINE_CORES = ("inorder", "banked", "swctx", "virec", "nsf",
                  "prefetch-full", "prefetch-exact", "fgmt")


@pytest.mark.parametrize("core_type", TIMELINE_CORES)
def test_observed_artifacts_add_up(core_type):
    n_threads = 1 if core_type == "inorder" else 4
    base = RunConfig(workload="gather", core_type=core_type,
                     n_threads=n_threads, n_per_thread=16)
    plain = run_config(base)
    r = run_config(base.with_(
        telemetry={"events": True, "interval": 100, "pipeline_trace": True},
        metrics=True, profile=True))

    assert r.cycles == plain.cycles
    assert r.instructions == plain.instructions

    rows = r.telemetry.interval_rows()
    assert sum(row["instructions"] for row in rows) == r.instructions
    for row in rows:
        # a commit that crosses a boundary is counted in the interval it
        # closes, hence the one
        assert row["instructions"] <= row["elapsed"] + 1, row

    # a HALT commits (it takes a commit slot) but is not an instruction
    committed = r.metrics.registry.get("sim_instructions_committed")
    assert committed.total() == r.instructions + n_threads

    (ct,) = r.telemetry.cores
    assert len(ct.core.tracer.records) == r.instructions
    assert r.telemetry.events.counts["thread_done"] == n_threads
