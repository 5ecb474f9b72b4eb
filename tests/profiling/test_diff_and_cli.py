"""Diff views, ``run --observe profile`` / ``inspect``, and reports.

Pins the acceptance story: on the fixed gather kernel, the per-cause
delta between the banked reference and ViReC is dominated by the causes
the paper's Fig 9 narrative names — VRMU refill traffic (ViReC pays it,
a fully-banked RF never does) against switch/spill overhead (which the
software-switch core pays and ViReC's background BSI hides).
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.telemetry import diff_snapshots
from repro.system import RunConfig, run_config

#: fixed kernel of the Fig 9 consistency assertions
FIG9_KW = dict(workload="gather", n_threads=8, n_per_thread=32,
               context_fraction=0.5, profile=True)


def _snapshot(core_type):
    return run_config(RunConfig(core_type=core_type, **FIG9_KW)
                      ).profile.profile_snapshot()


# -- Fig 9 consistency -------------------------------------------------------
def test_banked_vs_virec_delta_is_refill_dominated():
    banked, virec = _snapshot("banked"), _snapshot("virec")
    assert "vrmu_refill" not in banked["causes"]  # banked RF never refills
    diff = diff_snapshots(banked, virec)
    assert diff["cycles_base"] == banked["cycles"]
    assert diff["cycles_other"] == virec["cycles"]
    assert diff["dominant"][0] == "vrmu_refill"
    assert diff["by_cause"]["vrmu_refill"] > 0
    # the Fig 9 story: register-cache refills are the majority of the
    # extra cycles ViReC spends relative to the fully-banked RF
    gains = {c: d for c, d in diff["by_cause"].items() if d > 0}
    assert gains["vrmu_refill"] >= 0.5 * sum(gains.values())


def test_swctx_vs_virec_delta_is_switch_dominated():
    """ViReC's win over software save/restore is switch/spill time."""
    virec, swctx = _snapshot("virec"), _snapshot("swctx")
    diff = diff_snapshots(virec, swctx)
    assert diff["cycles_delta"] > 0  # swctx is slower on this kernel
    gap_causes = set(diff["dominant"][:3])
    assert gap_causes & {"switch", "spill_writeback"}
    assert diff["by_cause"].get("vrmu_refill", 0) < 0  # only virec refills


def test_diff_per_pc_deltas_fold_by_pc():
    banked, virec = _snapshot("banked"), _snapshot("virec")
    diff = diff_snapshots(banked, virec)
    assert diff["by_pc"]
    total = sum(diff["by_pc"].values())
    attributed_delta = (sum(virec["causes"].values())
                        - sum(banked["causes"].values()))
    assert total == attributed_delta


# -- renderers ---------------------------------------------------------------
def test_render_attribution_table_lists_causes_and_hotspots():
    from repro.stats.reporting import render_attribution_table
    snap = _snapshot("banked")
    text = render_attribution_table(snap, top=3)
    assert "cycle attribution" in text
    for cause in snap["causes"]:
        assert cause in text
    assert "hotspots" in text and "loop" in text
    assert "WARNING" not in text  # exact sum: no residual warning line


def test_render_attribution_diff_orders_by_magnitude():
    from repro.stats.reporting import render_attribution_diff
    diff = diff_snapshots(_snapshot("banked"), _snapshot("virec"))
    text = render_attribution_diff(diff, "banked", "virec", top=5)
    assert "cycle delta: banked" in text
    assert "dominant causes: vrmu_refill" in text


# -- the CLI: run --observe profile, inspect --------------------------------
def _profile_args(out, *extra, core="banked"):
    return ["run", "--workload", "gather", "--core", core,
            "--threads", "4", "--per-thread", "16",
            "--observe", "profile", "--out", str(out), *extra]


def test_cli_profile_prints_attribution(tmp_path, capsys):
    assert cli_main(_profile_args(tmp_path / "banked")) == 0
    out = capsys.readouterr().out
    assert "cycle attribution" in out and "top 10 hotspots" in out
    assert cli_main(["inspect", str(tmp_path / "banked"), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "cycle attribution" in out and "top 3 hotspots" in out


def test_cli_profile_diff_flame_json(tmp_path, capsys):
    """``profile --diff virec`` became two saved runs and one inspect."""
    banked, virec = tmp_path / "banked", tmp_path / "virec"
    assert cli_main(_profile_args(banked)) == 0
    assert cli_main(_profile_args(virec, core="virec")) == 0
    capsys.readouterr()
    assert cli_main(["inspect", str(banked), "--diff", str(virec)]) == 0
    out = capsys.readouterr().out
    assert "cycle delta: banked" in out and "-> virec" in out
    folded = (banked / "profile.folded").read_text()
    assert folded and all(line.rsplit(" ", 1)[1].isdigit()
                          for line in folded.splitlines())
    snap = json.loads((banked / "profile.json").read_text())
    assert sum(snap["causes"].values()) == sum(
        c["cycles"] for c in snap["cores"])
    assert cli_main(["inspect", str(banked), "--diff", str(virec),
                     "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff == diff_snapshots(
        snap, json.loads((virec / "profile.json").read_text()))


def test_cli_profile_rejects_ooo(tmp_path, capsys):
    assert cli_main(_profile_args(tmp_path / "o", core="ooo")) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- inspect usage hints -----------------------------------------------------
def test_monitor_missing_dir_hint(tmp_path, capsys):
    assert cli_main(["inspect", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "no such run or sweep directory" in err and "repro sweep" in err


def test_monitor_empty_dir_hint(tmp_path, capsys):
    assert cli_main(["inspect", str(tmp_path)]) == 2
    assert "is empty" in capsys.readouterr().err


def test_report_dir_without_event_log_hint(tmp_path, capsys):
    (tmp_path / "stray.txt").write_text("not a sweep\n")
    assert cli_main(["inspect", str(tmp_path), "--html",
                     str(tmp_path / "r.html")]) == 2
    err = capsys.readouterr().err
    assert "sweep_events.jsonl" in err and "Traceback" not in err


# -- HTML report attribution section ----------------------------------------
@pytest.fixture()
def sweep_dir_with_profile(tmp_path):
    session = run_config(RunConfig(core_type="banked", **FIG9_KW)).profile
    (tmp_path / "profile.json").write_text(
        json.dumps(session.profile_snapshot()))
    (tmp_path / "sweep_events.jsonl").write_text("")
    return tmp_path


def test_build_report_reads_profile_json(sweep_dir_with_profile):
    from repro.stats.report_html import build_report
    report = build_report(str(sweep_dir_with_profile))
    attribution = report["attribution"]
    assert attribution is not None
    assert attribution["total"] == sum(
        e["cycles"] for e in attribution["causes"])
    assert attribution["hotspots"]


def test_render_html_has_stacked_bars(sweep_dir_with_profile):
    from repro.stats.report_html import build_report, render_html
    page = render_html(build_report(str(sweep_dir_with_profile)))
    assert "Cycle attribution" in page
    assert "class='stack'" in page and "width:" in page
    assert "Hotspots" in page


def test_report_without_profile_json_skips_section(tmp_path):
    from repro.stats.report_html import build_report, render_html
    (tmp_path / "sweep_events.jsonl").write_text("")
    report = build_report(str(tmp_path))
    assert report["attribution"] is None
    assert "Cycle attribution" not in render_html(report)
