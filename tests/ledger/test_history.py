"""Run-ledger analytics (``repro inspect``): trajectories, compare, check.

Everything runs on synthetic ``record_row`` entries — history consumes
plain row dicts, never blobs, so no simulation is needed here.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.ledger import LedgerReader, Recorder
from repro.ledger.history import (check_history, compare_digests,
                                  history_series, render_check_text,
                                  render_compare_text, render_history_text,
                                  render_trajectory_text, trajectory)


def fill(path, digest, rates, source="sweep", **kw):
    with Recorder(path) as rec:
        for rate in rates:
            rec.record_row(digest, source=source, host_rate=rate, **kw)


@pytest.fixture
def ledger(tmp_path):
    return str(tmp_path / "ledger.sqlite")


# -- trajectory / series ------------------------------------------------------
def test_trajectory_series(ledger):
    fill(ledger, "synt:a", [100.0, None, 120.0], workload="gather",
         core_type="virec")
    with LedgerReader(ledger) as reader:
        traj = trajectory(reader, "synt:a")
    assert len(traj["rows"]) == 3
    assert traj["rates"] == [100.0, 120.0]  # None rows dropped from series


def test_history_series_skips_rateless_digests(ledger):
    fill(ledger, "synt:rated", [10.0, 11.0], workload="gather",
         core_type="virec")
    fill(ledger, "synt:bare", [None])
    with LedgerReader(ledger) as reader:
        series = history_series(reader)
    assert [s["digest"] for s in series] == ["synt:rated"]
    assert series[0]["label"] == "gather virec"
    assert series[0]["last_rate"] == 11.0


# -- compare ------------------------------------------------------------------
def test_compare_digests_deltas(ledger):
    with Recorder(ledger) as rec:
        rec.record_row("synt:a", source="sweep", cycles=1000,
                       counters={"rf_hits": 80, "only_a": 5})
        rec.record_row("synt:b", source="sweep", cycles=800,
                       counters={"rf_hits": 100})
    with LedgerReader(ledger) as reader:
        cmp = compare_digests(reader, "synt:a", "synt:b")
    assert cmp["found_a"] and cmp["found_b"]
    scalars = {r["name"]: r for r in cmp["scalars"]}
    assert scalars["cycles"]["delta"] == -200
    assert scalars["cycles"]["rel"] == pytest.approx(-0.2)
    counters = {r["name"]: r for r in cmp["counters"]}
    assert counters["rf_hits"]["delta"] == 20
    assert counters["only_a"]["b"] == 0  # absent on one side deltas vs 0
    text = render_compare_text(cmp)
    assert "synt:a" in text and "rf_hits" in text


def test_compare_missing_side(ledger):
    fill(ledger, "synt:a", [1.0])
    with LedgerReader(ledger) as reader:
        cmp = compare_digests(reader, "synt:a", "synt:nope")
    assert cmp["found_a"] and not cmp["found_b"]
    assert "no ledger rows" in render_compare_text(cmp)


# -- check --------------------------------------------------------------------
def test_check_stable_trajectory_is_ok(ledger):
    fill(ledger, "synt:a", [100.0, 102.0, 99.0, 101.0])
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["worst"] == "ok" and chk["checked"] == 1
    (finding,) = [f for f in chk["findings"] if f["kind"] == "host_rate"]
    assert finding["severity"] == "ok"


def test_check_detects_injected_regression(ledger):
    """The acceptance trajectory: >=3 good runs, then a big slowdown."""
    fill(ledger, "synt:a", [100.0, 101.0, 99.0, 30.0])
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["worst"] == "regression"
    worst = chk["findings"][0]              # sorted most-severe first
    assert worst["kind"] == "host_rate"
    assert worst["delta"] == pytest.approx(-0.7, abs=0.01)
    assert "[regression]" in render_check_text(chk)


def test_check_warn_band(ledger):
    # threshold 0.5: a 30% drop lands between threshold/2 and threshold
    fill(ledger, "synt:a", [100.0, 100.0, 100.0, 70.0])
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["worst"] == "warn"


def test_check_median_baseline_shrugs_off_one_outlier(ledger):
    # one noisy predecessor does not drag the median baseline down
    fill(ledger, "synt:a", [100.0, 5.0, 100.0, 100.0, 98.0])
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["worst"] == "ok"


def test_check_skips_short_trajectories(ledger):
    fill(ledger, "synt:a", [100.0, 30.0])  # only 2 rated rows
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["checked"] == 0 and chk["worst"] == "ok"
    with LedgerReader(ledger) as reader:
        chk = check_history(reader, min_runs=2)
    assert chk["worst"] == "regression"


def test_check_single_digest_filter(ledger):
    fill(ledger, "synt:good", [100.0, 100.0, 100.0])
    fill(ledger, "synt:bad", [100.0, 100.0, 100.0, 10.0])
    with LedgerReader(ledger) as reader:
        chk = check_history(reader, digest="synt:good")
    assert chk["worst"] == "ok" and chk["checked"] == 1


def test_determinism_alarm(ledger):
    """Same digest+engine+schema disagreeing on cycles: unconditional
    regression (the digest-determines-results contract broke)."""
    with Recorder(ledger) as rec:
        rec.record_row("synt:a", source="sweep", cycles=1000)
        rec.record_row("synt:a", source="sweep", cycles=1001)
    with LedgerReader(ledger) as reader:
        chk = check_history(reader)
    assert chk["worst"] == "regression"
    (finding,) = chk["findings"]
    assert finding["kind"] == "determinism"
    assert finding["cycles_seen"] == [1000, 1001]
    assert "determinism" in render_check_text(chk)


def test_differing_cycles_across_engines_is_fine(ledger):
    with Recorder(ledger) as rec:
        rec.record_row("synt:a", source="sweep", cycles=1000)
        # a row from a ledger written when a run could pick its engine
        rec._insert(digest="synt:a", source="sweep", cycles=1000,
                    engine_key="compiled")
    with LedgerReader(ledger) as reader:
        assert check_history(reader)["worst"] == "ok"


# -- renderers ----------------------------------------------------------------
def test_render_history_and_trajectory(ledger):
    fill(ledger, "synt:a", [100.0, 120.0, 90.0], workload="gather",
         core_type="virec", cycles=5000)
    with LedgerReader(ledger) as reader:
        overview = render_history_text(reader)
        traj = render_trajectory_text(trajectory(reader, "synt:a"))
    assert "synt:a" in overview and "3" in overview
    assert "gather" in overview
    assert "3 runs" in traj and "5000" in traj


# -- the CLI: inspect on the ledger -------------------------------------------
def test_cli_history_missing_ledger_hints(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["inspect"]) == 2
    err = capsys.readouterr().err
    assert "no run ledger" in err and "repro sweep" in err


def test_cli_history_views(ledger, capsys):
    fill(ledger, "synt:a", [100.0, 101.0, 99.0], workload="gather",
         core_type="virec")
    fill(ledger, "synt:b", [50.0])

    assert cli_main(["inspect", "--ledger", ledger]) == 0
    assert "synt:a" in capsys.readouterr().out

    assert cli_main(["inspect", "synt:a", "--ledger", ledger]) == 0
    assert "3 runs" in capsys.readouterr().out

    assert cli_main(["inspect", "synt:nope", "--ledger", ledger]) == 2

    assert cli_main(["inspect", "synt:a", "--diff", "synt:b",
                     "--ledger", ledger]) == 0
    assert "synt:b" in capsys.readouterr().out

    assert cli_main(["inspect", "--ledger", ledger, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {d["digest"] for d in payload} == {"synt:a", "synt:b"}


def test_cli_history_check_exit_codes(ledger, capsys):
    fill(ledger, "synt:a", [100.0, 101.0, 99.0])
    assert cli_main(["inspect", "--ledger", ledger, "--check"]) == 0
    capsys.readouterr()
    fill(ledger, "synt:a", [20.0])          # inject the slowdown
    assert cli_main(["inspect", "--ledger", ledger, "--check"]) == 4
    assert "regression" in capsys.readouterr().out
    assert cli_main(["inspect", "--ledger", ledger, "--check",
                     "--json"]) == 4
    capsys.readouterr()
    fill(ledger, "synt:b", [100.0, 100.0, 100.0])
    assert cli_main(["inspect", "synt:b", "--ledger", ledger,
                     "--check"]) == 0   # one digest's gate
