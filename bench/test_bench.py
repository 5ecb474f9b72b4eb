"""Self-test of the benchmark: ``python -m pytest bench/`` (~1 min).

Outside the tier-1 ``testpaths``; it checks the harness, not the simulator.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, harness
from bench.workloads import WORKLOADS

ROOT = harness.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = ("norm_s", "sim_kips", "setup_s", "peak_rss_mb")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return json.load(fh), proc.stdout, out


# -- BENCHMARK.json against the contract --------------------------------------

def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_matches_code(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END


# -- a whole smoke run --------------------------------------------------------

def test_smoke_report_schema(smoke, spec):
    report, _stdout, _path = smoke
    assert report["smoke"] is True and report["seed"] == 7
    assert list(report["workloads"]) == [w.name for w in WORKLOADS]
    declared = {m["name"] for m in spec["per_layer"]}
    for name, rec in report["workloads"].items():
        assert tuple(rec["end_to_end"]) == END_TO_END, name
        for metric in rec["end_to_end"].values():
            assert metric["value"] > 0
            assert metric["q1"] <= metric["value"] <= metric["q3"]
        assert rec["failed"] == 0 and rec["fail_ratio"] == 0, rec["errors"]
        assert rec["attempted"] >= 1 and rec["reps"] == 2
        assert re.fullmatch(r"[0-9a-f]{64}", rec["digest"])
        assert set(rec["per_layer"]) <= declared
        for key in rec["per_layer"]:
            assert NAME.match(key), key


def test_layer_story(smoke):
    report, _stdout, _path = smoke
    layers = {n: r["per_layer"] for n, r in report["workloads"].items()}
    for name in ("banked_compute", "node_memory"):
        assert layers[name]["virec.vrmu_access_calls"] == 0
    assert layers["virec_thrash"]["virec.select_victim_calls"] > \
        layers["virec_hit"]["virec.select_victim_calls"]
    sinks = ("telemetry.overhead_x", "metrics.overhead_x",
             "profiling.overhead_x", "sanitizer.overhead_x")
    for name, layer in layers.items():
        assert all((k in layer) == (name == "virec_observed") for k in sinks)
        assert ("ledger.record_calls" in layer) == (name == "fig_sweep")
    assert layers["fig_sweep"]["ledger.record_calls"] == 46


def test_smoke_prints_every_metric(smoke, spec):
    _report, stdout, _path = smoke
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(rf"^\s*{re.escape(m['name'])}\s", stdout, re.M), m
    assert "fail_ratio" in stdout


def test_spans_written(smoke):
    _report, _stdout, path = smoke
    with open(str(path)[:-5] + ".spans.fig_sweep.json") as fh:
        spans = json.load(fh)["spans"]
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"run_config", "WorkloadSpec.build", "assemble", "backend.map",
            "NearMemoryNode.run", "Recorder.record_result",
            "LedgerReader.lookup_result"} <= names
    for s in spans:
        assert s["end_s"] >= s["start_s"]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_s"] <= s["start_s"]
            assert s["end_s"] <= parent["end_s"]
    assert {s["config"] for s in spans if s["name"] == "run_config"} == \
        set(range(46))


# -- the driver's command line ------------------------------------------------

@pytest.mark.parametrize("trace", (0, 1))
def test_driver_line(spec, trace):
    proc = bench("--workload", "virec_hit", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not os.path.exists(harness.WORK_ROOT)


def test_refuses_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "virec_hit", "--seed", "3", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- tracing leaves nothing behind --------------------------------------------

def test_wrappers_are_removed():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.core import base as core_base
        from repro.memory.cache import Cache
        from repro.system import RunConfig, simulator
        from repro.virec.vrmu import VRMU
        from repro.workloads import registry

        from bench.trace import Tracer

        before = (simulator.run_config, core_base.compile_program,
                  registry.assemble, registry.get("gather"),
                  VRMU.__dict__["access"], Cache.__dict__["access"])
        cfg = RunConfig(workload="gather", core_type="virec",
                        context_fraction=0.4, n_threads=4, n_per_thread=8)
        plain = simulator.run_config(cfg)

        tracer = Tracer()
        tracer.install({"gather"})
        try:
            traced = simulator.run_config(cfg)
        finally:
            tracer.remove()
        assert tracer.calls("VRMU.access") > 0
        assert tracer.calls("run_config") == 1
        assert traced.cycles == plain.cycles

        after = (simulator.run_config, core_base.compile_program,
                 registry.assemble, registry.get("gather"),
                 VRMU.__dict__["access"], Cache.__dict__["access"])
        assert all(a is b for a, b in zip(before, after))
        calls = {name: agg.calls for name, agg in tracer.aggs.items()}
        again = simulator.run_config(cfg)
        assert again.cycles == plain.cycles
        assert calls == {name: agg.calls for name, agg in tracer.aggs.items()}
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


# -- compare ------------------------------------------------------------------

def test_compare_verdicts(smoke, spec):
    report, _stdout, _path = smoke
    same = compare.compare(spec, report, report)
    assert {r["verdict"] for r in same} <= {"ok", "unresolved"}

    def metric(value, spread=0.0):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2),
                "samples": [value * (1 - spread / 2), value,
                            value * (1 + spread / 2)]}

    assert compare.verdict(metric(1.0), metric(1.05), "lower", 0.1) == "ok"
    assert compare.verdict(metric(1.0), metric(1.2), "lower", 0.1) == "worse"
    assert compare.verdict(metric(1.0), metric(0.8), "higher", 0.1) == "worse"
    assert compare.verdict(metric(1.0), metric(1.2), "higher", 0.1) == "ok"
    assert compare.verdict(metric(1.0, 0.3), metric(1.2, 0.3), "lower",
                           0.1) == "unresolved"
    assert compare.verdict(metric(1.0, 0.3), metric(0.5, 0.3), "lower",
                           0.1) == "ok"
