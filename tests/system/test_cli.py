"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "gather" in out and "spmv" in out


def test_run_command(capsys):
    rc = main(["run", "--workload", "vecadd", "--core", "virec",
               "--threads", "4", "--per-thread", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "RF hit rate" in out


def test_run_verbose(capsys):
    rc = main(["run", "--workload", "vecadd", "--core", "banked",
               "--threads", "2", "--per-thread", "8", "--verbose"])
    assert rc == 0
    assert "core0" in capsys.readouterr().out


def test_disasm_command(capsys):
    assert main(["disasm", "--workload", "gather"]) == 0
    out = capsys.readouterr().out
    assert "ldr" in out and "active registers" in out


def test_experiments_command(capsys):
    assert main(["experiments", "fig14", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "area vs threads" in out and "banked_mm2" in out


def _exit_code(argv):
    """``main``'s return code, or argparse's exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["fig14", "--scale", "bogus"], 2),
    (["fig14", "--scale", "-4"], 2),
    (["fig14", "--scale", "0"], 2),
    (["fig99"], 2),
    (["sizing", "--scale", "8"], 0),
], ids=["bogus", "negative", "zero", "fig99", "int"])
def test_experiments_input_is_checked_up_front(argv, code, capsys):
    """A bad scale or figure name is one ``error:`` line and exit 2, not
    a traceback; an int scale runs."""
    assert _exit_code(["experiments", *argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error: " in line]
    assert len(errors) == (1 if code else 0), err


def test_bad_core_type_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--core", "tpu"])


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "nope"],
    ["run", "--observe", "events", "--policy", "nope"],
    ["run", "--observe", "intervals", "--policy", "nope"],
    ["run", "--observe", "profile", "--policy", "nope"],
    ["run", "--observe", "profile", "--out", "never-written",
     "--policy", "nope"],
    ["sweep", "--policy", "nope"],
])
def test_unknown_policy_is_a_usage_error_on_every_verb(argv, capsys):
    """An unknown policy used to die with a traceback deep in core
    construction; argparse now rejects it up front, naming the choices."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and "'lrc'" in err


_SMALL = ["--per-thread", "8"]


# the ids name the verb each case replaced: trace/timeline/profile are
# ``run --observe events/intervals/profile``, and ``profile --diff ooo`` is
# the second of the two ``run --observe profile --out`` calls
@pytest.mark.parametrize("argv", [
    ["run", "--observe", "events", "--core", "ooo", "--threads", "1",
     *_SMALL],
    ["run", "--observe", "intervals", "--core", "ooo", "--threads", "1",
     *_SMALL],
    ["run", "--core", "ooo", "--threads", "1", "--sanitize", "commit",
     *_SMALL],
    ["run", "--core", "inorder", "--threads", "4", *_SMALL],
    ["run", "--core", "virec", "--context", "0.01", *_SMALL],
    ["run", "--observe", "profile", "--core", "ooo", "--threads", "1",
     *_SMALL],
    ["run", "--observe", "profile", "--core", "virec", "--context", "0.01",
     *_SMALL],
    ["run", "--observe", "profile", "--core", "ooo", "--threads", "2",
     "--out", "never-written", *_SMALL],
    ["run", "--cores", "0", *_SMALL],
    ["run", "--threads", "0", *_SMALL],
], ids=["trace-ooo", "timeline-ooo", "run-ooo-sanitize", "run-inorder-4",
        "run-context", "profile-ooo", "profile-context", "profile-diff-ooo",
        "run-cores-0", "run-threads-0"])
def test_rejected_config_is_a_usage_error_on_every_single_run_verb(
        argv, capsys, tmp_path, monkeypatch):
    """A config that RunConfig or run_config rejects used to traceback;
    ``run``, observed or not, prints one line and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert not list(tmp_path.iterdir())


def test_unknown_policy_rejected_by_run_config():
    from repro.system import RunConfig
    from repro.virec import POLICIES

    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        RunConfig(policy="nope")
    with pytest.raises(ValueError, match="unknown policy"):
        RunConfig().with_(policy="LRC")
    for name in POLICIES:
        assert RunConfig(policy=name).policy == name


def test_sweep_axis_with_unknown_policy_is_one_line(capsys):
    rc = main(["sweep", "--threads", "4", "--per-thread", "8",
               "--axis", "policy=nope,lrc"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown policy 'nope'" in err


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--workload", "gather"])
    assert args.workload == "gather"


def test_inspect_prints_the_panels_run_printed(tmp_path, capsys):
    """``inspect D`` renders from disk exactly what ``run --observe ...
    --out D`` rendered from the live run."""
    out = tmp_path / "D"
    assert main(["run", "--threads", "4", "--per-thread", "16",
                 "--observe", "intervals,profile", "--out", str(out)]) == 0
    live = capsys.readouterr().out
    assert main(["inspect", str(out)]) == 0
    saved = capsys.readouterr().out
    assert "intervals, cycles" in saved and "cycle attribution" in saved
    assert saved in live
    assert sorted(p.name for p in out.iterdir()) == [
        "intervals.jsonl", "profile.folded", "profile.json"]


def test_observed_run_prints_panels_and_writes_nothing_without_out(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--threads", "2", "--per-thread", "8", "--observe",
                 "events,intervals,pipeline,profile"]) == 0
    out = capsys.readouterr().out
    for panel in ("trace: ", "intervals, cycles", "cycle attribution",
                  "telemetry report", "pipeline stalls"):
        assert panel in out
    assert not list(tmp_path.iterdir())
