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


def test_area_command(capsys):
    assert main(["area"]) == 0
    assert "banked_mm2" in capsys.readouterr().out


def test_experiments_command(capsys):
    assert main(["experiments", "fig14", "--scale", "tiny"]) == 0
    assert "area vs threads" in capsys.readouterr().out


def test_experiments_unknown_name(capsys):
    assert main(["experiments", "fig99"]) == 2


def test_experiments_integer_scale(capsys):
    assert main(["experiments", "fig02", "--scale", "8"]) == 0


def test_bad_core_type_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--core", "tpu"])


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "nope"],
    ["trace", "--policy", "nope"],
    ["timeline", "--policy", "nope"],
    ["profile", "--policy", "nope"],
    ["profile", "--diff-policy", "nope"],
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


@pytest.mark.parametrize("argv", [
    ["trace", "--core", "ooo", "--threads", "1", *_SMALL],
    ["timeline", "--core", "ooo", "--threads", "1", *_SMALL],
    ["run", "--core", "ooo", "--threads", "1", "--sanitize", "commit",
     *_SMALL],
    ["run", "--core", "inorder", "--threads", "4", *_SMALL],
    ["run", "--core", "virec", "--context", "0.01", *_SMALL],
    ["profile", "--core", "ooo", "--threads", "1", *_SMALL],
    ["profile", "--core", "virec", "--context", "0.01", *_SMALL],
    ["profile", "--core", "banked", "--threads", "2", "--diff", "ooo",
     *_SMALL],
], ids=["trace-ooo", "timeline-ooo", "run-ooo-sanitize", "run-inorder-4",
        "run-context", "profile-ooo", "profile-context", "profile-diff-ooo"])
def test_rejected_config_is_a_usage_error_on_every_single_run_verb(
        argv, capsys):
    """A config that RunConfig or run_config rejects used to traceback on
    run/trace/timeline; every single-run verb now prints one line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


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
