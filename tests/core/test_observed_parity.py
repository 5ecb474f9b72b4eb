"""Every timeline core type feeds every sink: what an observed run reports
must add up to what the run did.

Both pipeline families' observed steps (the timeline cores' and the
barrel core's, generated in ``repro/isa/compiled.py``) dispatch one commit
event that every observer rides; a step that skipped a sink would still
run cycle-identically and write plausible-looking artifacts, so the
artifacts are checked against the run's own totals — on one core and on a
two-core node.
"""

import pytest

from repro.system import RunConfig, run_config

TIMELINE_CORES = ("inorder", "banked", "swctx", "virec", "nsf",
                  "prefetch-full", "prefetch-exact", "fgmt")

CASES = ([pytest.param(c, 1, id=c) for c in TIMELINE_CORES]
         + [pytest.param(c, 2, id=f"{c}-2core") for c in TIMELINE_CORES])


@pytest.mark.parametrize("core_type,n_cores", CASES)
def test_observed_artifacts_add_up(core_type, n_cores):
    n_threads = 1 if core_type == "inorder" else 4
    base = RunConfig(workload="gather", core_type=core_type,
                     n_threads=n_threads, n_cores=n_cores, n_per_thread=16)
    plain = run_config(base)
    r = run_config(base.with_(
        telemetry={"events": True, "interval": 100, "pipeline_trace": True},
        metrics=True, profile=True, sanitize=True))

    assert r.cycles == plain.cycles
    assert r.instructions == plain.instructions

    rows = r.telemetry.interval_rows()
    assert sum(row["instructions"] for row in rows) == r.instructions
    for row in rows:
        # a commit that crosses a boundary is counted in the interval it
        # closes, hence the one
        assert row["instructions"] <= row["elapsed"] + 1, row

    # a HALT commits (it takes a commit slot) but is not an instruction
    halts = n_cores * n_threads
    committed = r.metrics.registry.get("sim_instructions_committed")
    assert committed.total() == r.instructions + halts
    assert r.sanitizer.stats()["shadow_commits"] == r.instructions + halts

    assert sum(len(ct.tracer.records)
               for ct in r.telemetry.cores) == r.instructions
    assert r.telemetry.events.counts["thread_done"] == halts
    snap = r.profile.snapshot()
    for core in snap["cores"]:
        assert sum(core["causes"].values()) == core["cycles"]
