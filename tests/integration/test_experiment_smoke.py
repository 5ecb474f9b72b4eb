"""Smoke tests: every experiment driver runs at tiny scale and produces the
rows its figure needs.  (The full shape assertions live in benchmarks/.)"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ablation,
    fig01,
    fig02,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
)


def test_registry_complete():
    assert set(ALL_EXPERIMENTS) == {"ablation", "compiler_study",
                                    "fault_study", "fig01",
                                    "fig02", "fig09", "fig10", "fig11",
                                    "fig12", "fig13", "fig14", "sizing",
                                    "throughput"}


def test_fig01_rows():
    r = fig01.run("tiny")
    names = {row["config"] for row in r.rows}
    assert {"inorder-1", "ooo", "banked-4t", "banked-8t",
            "virec-8t-40%", "virec-8t-100%"} <= names
    assert all("speedup" in row and "area_mm2" in row for row in r.rows)


def test_fig02_rows():
    r = fig02.run()
    assert len(r.rows) >= 10
    assert all(0 < row["inner_context_%"] < 100 for row in r.rows)


def test_fig09_subset():
    r = fig09.run("tiny", workloads=("vecadd",), threads=(4,),
                  include_nsf=False, include_prefetch=False)
    assert [row["workload"] for row in r.rows] == ["vecadd", "GEOMEAN"]
    assert 0 < r.rows[0]["virec80"] <= 1.4


def test_fig10_subset():
    r = fig10.run("tiny", threads=(2, 4))
    configs = {row["config"] for row in r.rows}
    assert "banked" in configs and "virec100" in configs
    assert all(row["perf_per_reg"] > 0 for row in r.rows)


def test_fig11_subset():
    r = fig11.run("tiny", core_counts=(1, 2), thread_counts=(4, 6))
    sweep = [row for row in r.rows if isinstance(row["threads"], int)]
    assert len(sweep) == 4
    best = [row for row in r.rows if isinstance(row["threads"], str)]
    assert len(best) == 2


def test_fig12_subset():
    r = fig12.run("tiny", workloads=("gather",), policies=("plru", "lrc"))
    mean_rows = [row for row in r.rows if row["workload"] == "MEAN"]
    assert len(mean_rows) == 2
    for row in mean_rows:
        assert 0 < row["hit_lrc"] <= 1


def test_fig13_subset():
    r = fig13.run("tiny", workloads=("vecadd",), latencies=(2, 8),
                  capacities_kb=(4, 16))
    sweeps = {(row["sweep"], row["value"]) for row in r.rows}
    assert sweeps == {("latency", 2), ("latency", 8),
                      ("capacity_kb", 4), ("capacity_kb", 16)}


def test_fig14_pure_model():
    r = fig14.run()
    assert any("headline" in row for row in r.rows)


def test_ablation_subset():
    r = ablation.run("tiny", workloads=("vecadd",),
                     variants=("full", "blocking_bsi"))
    mean = next(row for row in r.rows if row["workload"] == "GEOMEAN")
    assert mean["blocking_bsi"] > 0.9


def test_result_formatting():
    r = fig14.run()
    text = r.format()
    assert "fig14" in text and "\n" in text
    assert r.series("banked_mm2")


def test_bad_scale_rejected():
    from repro.experiments import scale_to_n
    with pytest.raises(ValueError):
        scale_to_n("gigantic")
    assert scale_to_n(77) == 77
    assert scale_to_n("tiny") == 12


def test_fault_study_subset():
    from repro.experiments import fault_study
    r = fault_study.run("tiny")
    assert len(r.rows) == (len(fault_study.CELLS) * len(fault_study.SCHEMES)
                           * len(fault_study.RATES))
    # rate-0 rows prove the subsystem is opt-in: nothing injected, no cost
    for row in r.rows:
        if float(row["rate"]) == 0.0:
            assert row["injected"] == 0 and row["overhead"] == 0.0
