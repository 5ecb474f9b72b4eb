"""The CLI contract, table-driven: every verb x every bad-value class.

Each row is one bad input to one verb: a zero or negative count, an
unknown name, a missing path, or a flag combination that is not allowed.
Every one must end the same way: exit code 2, exactly one stderr line
containing ``error:``, and no traceback.  ``{tmp}`` in an argument is
the test's scratch directory; ``{ledger}`` a run ledger with one row.
"""

import os

import pytest

from repro.cli import build_parser, main
from repro.ledger import Recorder

#: the verbs ``build_parser`` registers, in registration order
VERBS = ("experiments", "run", "sweep", "inspect", "check", "lint",
         "workloads", "disasm", "fuzz")

_SMALL = ["--threads", "2", "--per-thread", "4"]

#: (id, argv) rows; every row is a usage error
CASES = [
    # -- zero or negative counts -------------------------------------------
    ("experiments-scale-0", ["experiments", "fig14", "--scale", "0"]),
    ("experiments-jobs-neg", ["experiments", "fig14", "--jobs", "-1"]),
    ("run-threads-0", ["run", "--threads", "0"]),
    ("run-cores-0", ["run", "--cores", "0"]),
    ("run-per-thread-0", ["run", "--per-thread", "0"]),
    ("run-per-thread-neg", ["run", "--per-thread", "-1"]),
    ("run-dcache-kb-0", ["run", "--dcache-kb", "0", *_SMALL]),
    ("run-interval-0", ["run", "--observe", "intervals", "--interval", "0"]),
    ("sweep-threads-0", ["sweep", "--threads", "0"]),
    ("sweep-cores-0", ["sweep", "--cores", "0"]),
    ("sweep-per-thread-0", ["sweep", "--per-thread", "0"]),
    ("sweep-jobs-neg", ["sweep", *_SMALL, "--jobs", "-1"]),
    ("inspect-top-0", ["inspect", "{tmp}", "--top", "0"]),
    ("check-threads-0", ["check", "gather", "--threads", "0"]),
    ("check-per-thread-neg", ["check", "gather", "--per-thread", "-1"]),
    ("fuzz-budget-neg", ["fuzz", "--budget", "-1", "--corpus", "{tmp}/c"]),
    ("fuzz-budget-0", ["fuzz", "--budget", "0", "--corpus", "{tmp}/c"]),
    ("fuzz-threads-0", ["fuzz", "--threads", "0", "--corpus", "{tmp}/c"]),
    # -- unknown names -----------------------------------------------------
    ("experiments-fig99", ["experiments", "fig99"]),
    ("experiments-scale-bogus", ["experiments", "--scale", "bogus"]),
    ("run-policy", ["run", "--policy", "nope"]),
    ("run-workload", ["run", "--workload", "nope"]),
    ("run-core", ["run", "--core", "tpu"]),
    ("run-observe-layer", ["run", "--observe", "events,nope"]),
    ("sweep-policy", ["sweep", "--policy", "nope"]),
    ("sweep-axis-policy", ["sweep", *_SMALL, "--axis", "policy=nope,lrc"]),
    ("sweep-axis-field", ["sweep", *_SMALL, "--axis", "nofield=1,2"]),
    ("inspect-digest", ["inspect", "nosuchdigest", "--ledger", "{ledger}"]),
    ("inspect-diff-digest", ["inspect", "synt:a", "--diff", "synt:nope",
                             "--ledger", "{ledger}"]),
    ("check-workload", ["check", "nope"]),
    ("lint-rule", ["lint", "{tmp}", "--select", "VRC999"]),
    ("workloads-extra", ["workloads", "nope"]),
    ("disasm-workload", ["disasm", "--workload", "nope"]),
    ("fuzz-flag", ["fuzz", "--nope"]),
    # -- missing paths -----------------------------------------------------
    ("inspect-dir", ["inspect", "{tmp}/nope"]),
    ("inspect-diff-dir", ["inspect", "{tmp}", "--diff", "{tmp}/nope"]),
    ("inspect-ledger", ["inspect", "--ledger", "{tmp}/nope.sqlite"]),
    ("check-asm", ["check", "--asm", "{tmp}/nope.asm"]),
    ("check-corpus", ["check", "--corpus", "{tmp}/nope"]),
    ("lint-path", ["lint", "{tmp}/nope"]),
    ("fuzz-replay-missing", ["fuzz", "--replay", "{tmp}/nope"]),
    ("fuzz-replay-empty", ["fuzz", "--replay", "{tmp}"]),
    ("run-out-file", ["run", *_SMALL, "--observe", "profile", "--out",
                      "{tmp}/trace.json"]),
    ("sweep-dir-file", ["sweep", *_SMALL, "--dir", "{tmp}/trace.json"]),
    ("sweep-csv-missing-dir", ["sweep", *_SMALL, "--csv", "{tmp}/nope/x.csv"]),
    ("inspect-html-missing-dir", ["inspect", "{tmp}", "--html",
                                  "{tmp}/nope/r.html"]),
    ("fuzz-corpus-file", ["fuzz", "--budget", "1", "--corpus",
                          "{tmp}/trace.json"]),
    # -- flag combinations that are not allowed ----------------------------
    ("inspect-digest-follow", ["inspect", "synt:a", "--follow"]),
    ("inspect-digest-html", ["inspect", "synt:a", "--html", "{tmp}/r.html"]),
    ("inspect-dir-check", ["inspect", "{tmp}", "--check"]),
    ("inspect-diff-html", ["inspect", "{tmp}", "--diff", "{tmp}",
                           "--html", "{tmp}/r.html"]),
    ("inspect-html-follow", ["inspect", "{tmp}", "--html", "{tmp}/r.html",
                             "--follow"]),
    ("inspect-follow-run-dir", ["inspect", "{tmp}", "--follow"]),
    ("inspect-diff-no-target", ["inspect", "--diff", "synt:a",
                                "--ledger", "{ledger}"]),
    ("run-out-without-observe", ["run", "--out", "{tmp}/o"]),
    ("run-interval-without-intervals", ["run", "--observe", "events",
                                        "--interval", "100"]),
    ("run-observe-ooo", ["run", "--observe", "events", "--core", "ooo",
                         "--threads", "1", "--per-thread", "4"]),
    ("run-observe-profile-ooo", ["run", "--observe", "profile", "--core",
                                 "ooo", "--threads", "1", "--per-thread",
                                 "4", "--out", "{tmp}/o"]),
    ("sweep-live-without-dir", ["sweep", *_SMALL, "--live"]),
    ("sweep-resume-without-checkpoint", ["sweep", *_SMALL, "--resume"]),
    ("sweep-axis-shape", ["sweep", *_SMALL, "--axis", "policy"]),
]


@pytest.fixture
def scratch(tmp_path):
    """``{tmp}``: a run directory holding one trace artifact; ``{ledger}``:
    a run ledger with one row for digest ``synt:a``."""
    (tmp_path / "trace.json").write_text('{"traceEvents": []}')
    ledger = tmp_path / "ledger.sqlite"
    with Recorder(str(ledger)) as rec:
        rec.record_row("synt:a", source="sweep", host_rate=1.0)
    return {"tmp": str(tmp_path), "ledger": str(ledger)}


def test_the_verbs():
    sub = next(a for a in build_parser()._actions
               if a.dest == "command")
    assert tuple(sub.choices) == VERBS


def test_every_verb_has_a_row():
    assert {argv[0] for _, argv in CASES} == set(VERBS)


@pytest.mark.parametrize("argv", [argv for _, argv in CASES],
                         ids=[case_id for case_id, _ in CASES])
def test_bad_input_is_one_error_line(argv, scratch, capsys, monkeypatch):
    monkeypatch.chdir(scratch["tmp"])
    argv = [a.format(**scratch) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    assert not os.path.exists(os.path.join(scratch["tmp"], "o")), \
        "a rejected run wrote its --out directory"
