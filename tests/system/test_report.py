"""HTML reports from sweep directories: sparklines, sections, grading.

``build_report`` is pure data assembly over a sweep directory, so every
section is exercised on a synthetic directory with a hand-written
manifest / metrics snapshot / event log.  The ``ok``/``warn``/
``regression`` ladder tested here is the one ``repro inspect --check``
grades with.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.ledger.history import classify_delta
from repro.stats.report_html import (build_report, render_html,
                                     svg_sparkline, write_report)


# -- sparklines (SVG flavour) ------------------------------------------------
def test_svg_sparkline_normal_series():
    svg = svg_sparkline([1, 2, 3, 2])
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "<polyline" in svg and "<circle" in svg


def test_svg_sparkline_empty_series():
    svg = svg_sparkline([])
    assert svg.startswith("<svg")
    assert "<polyline" not in svg  # an empty frame, not a crash


def test_svg_sparkline_single_point_centered():
    svg = svg_sparkline([5.0], height=28)
    assert "14.0" in svg  # flat line at mid-height; no div-by-zero


def test_svg_sparkline_constant_series_flat():
    svg = svg_sparkline([3, 3, 3, 3], height=28)
    assert svg.count(",14.0") == 4  # every point at mid-height


def test_svg_sparkline_filters_non_finite():
    svg = svg_sparkline([1.0, float("nan"), float("inf"),
                         float("-inf"), 2.0])
    assert "nan" not in svg and "inf" not in svg
    assert "<polyline" in svg
    # only NaN/inf values: degenerates to the empty frame
    assert "<polyline" not in svg_sparkline([float("nan")])


# -- delta grading -----------------------------------------------------------
def test_classify_delta_grades():
    assert classify_delta(100, 100)["severity"] == "ok"
    assert classify_delta(110, 100)["severity"] == "ok"  # improvements pass
    # warn strictly beyond threshold/2, regression strictly beyond threshold
    assert classify_delta(70, 100, threshold=0.5)["severity"] == "warn"
    assert classify_delta(40, 100, threshold=0.5)["severity"] == "regression"
    assert classify_delta(80, 100, threshold=0.5)["severity"] == "ok"


def test_classify_delta_missing_baseline_is_ok():
    assert classify_delta(100, None)["severity"] == "ok"
    assert classify_delta(None, 100)["severity"] == "ok"
    assert classify_delta(100, 0)["severity"] == "ok"
    assert classify_delta(100, -5)["severity"] == "ok"


def test_classify_delta_lower_is_better():
    entry = classify_delta(300, 100, threshold=0.5, higher_is_better=False)
    assert entry["severity"] == "regression"
    assert classify_delta(50, 100, threshold=0.5,
                          higher_is_better=False)["severity"] == "ok"


# -- synthetic sweep directory ----------------------------------------------
def _make_sweep_dir(tmp_path):
    root = tmp_path / "swp"
    root.mkdir(parents=True)
    manifest = {
        "repro_version": "0", "python_version": "3", "platform": "test",
        "results_digest": "feedfacefeedface",
        "configs": [{"workload": "gather", "core_type": "virec",
                     "n_threads": 4, "context_fraction": 0.6, "seed": 7},
                    {"workload": "gather", "core_type": "virec",
                     "n_threads": 4, "context_fraction": 0.8, "seed": 7}],
        "results_summary": [
            {"cycles": 1000, "instructions": 400, "ipc": 0.4,
             "rf_hit_rate": 0.9},
            {"cycles": 900, "instructions": 400, "ipc": 0.44,
             "rf_hit_rate": 0.95}],
        "host_profiles": [
            {"total_s": 0.05, "phases_s": {"build": 0.01, "simulate": 0.03,
                                           "check": 0.01},
             "instr_per_s": 8000.0, "cycles_per_s": 2e4},
            {"total_s": 0.04, "phases_s": {"build": 0.01, "simulate": 0.02,
                                           "check": 0.01},
             "instr_per_s": 8000.0, "cycles_per_s": 2e4}],
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    metrics = {"metrics": {
        "sweep_stage_seconds": {
            "kind": "counter", "help": "",
            "series": {'stage="build"': 0.02, 'stage="simulate"': 0.05,
                       'stage="check"': 0.02}},
        "sim_vrmu_hits": {"kind": "counter", "help": "",
                          "series": {'core="0"': 900.0}},
        "sim_vrmu_misses": {"kind": "counter", "help": "",
                            "series": {'core="0"': 100.0}},
        "sim_cycles": {"kind": "gauge", "help": "", "agg": "max",
                       "series": {'core="0"': 1000.0}},
    }}
    (root / "metrics.json").write_text(json.dumps(metrics))
    events = [{"ev": "sweep_start", "t": 0.0, "total": 2},
              {"ev": "row_ok", "t": 0.5, "index": 0},
              {"ev": "row_ok", "t": 0.9, "index": 1},
              {"ev": "sweep_end", "t": 1.0}]
    (root / "sweep_events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events))
    return root


def test_build_report_sections(tmp_path):
    root = _make_sweep_dir(tmp_path)
    report = build_report(str(root))
    assert report["summary"]["ok"] == 2 and report["summary"]["finished"]
    assert [r["label"] for r in report["rows"]] == [
        "gather/virec/t4/cf0.6", "gather/virec/t4/cf0.8"]
    stages = {s["stage"]: s for s in report["stages"]}
    assert set(stages) == {"build", "simulate", "check"}
    assert stages["simulate"]["share"] == pytest.approx(0.05 / 0.09, abs=1e-3)
    assert report["vrmu"] == [{"core": "0", "hits": 900, "misses": 100,
                               "hit_rate": 0.9, "cycles": 1000}]


def test_html_is_self_contained(tmp_path, capsys):
    root = _make_sweep_dir(tmp_path)
    report = write_report(str(root), str(root / "report.html"))
    html = (root / "report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<style>" in html and "<svg" in html
    for external in ("http://", "https://", "src=", "@import"):
        assert external not in html, f"external asset via {external}"
    assert len(report["rows"]) == 2
    for heading in ("Summary", "Per-row results", "Host wall-clock by stage",
                    "VRMU register cache"):
        assert f"<h2>{heading}" in html
    # the CLI writes the same page
    assert cli_main(["inspect", str(root), "--html",
                     str(tmp_path / "cli.html")]) == 0
    assert (tmp_path / "cli.html").read_text() == html
    assert "2 ok / 0 failed" in capsys.readouterr().out


def test_report_on_bare_directory(tmp_path):
    # no manifest, no metrics, no events: every section degrades gracefully
    report = build_report(str(tmp_path))
    assert report["rows"] == [] and report["stages"] == []
    html = render_html(report)
    assert "<h1>" in html


# -- CLI ---------------------------------------------------------------------
def test_cli_report_missing_dir():
    assert cli_main(["inspect", "/nonexistent/sweep-dir", "--html",
                     "/nonexistent/report.html"]) == 2


def test_cli_inspect_sweep_dir(tmp_path, capsys):
    """``monitor DIR`` became ``inspect DIR``: the progress panel, exit 3
    once a row failed; ``--json`` is the report dict."""
    root = _make_sweep_dir(tmp_path)
    assert cli_main(["inspect", str(root)]) == 0
    assert "sweep done: 2/2 rows (2 ok, 0 failed" in capsys.readouterr().out
    assert cli_main(["inspect", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(
        json.dumps(build_report(str(root))))
    with open(root / "sweep_events.jsonl", "a") as f:
        f.write(json.dumps({"ev": "row_fail", "t": 1.1, "index": 2}) + "\n")
    assert cli_main(["inspect", str(root), "--follow"]) == 3
