"""The ``repro lint`` determinism linter: rules, suppression, output, CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis import lint as L
from repro.cli import main as cli_main

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def ids(findings, include_suppressed=False):
    return sorted({f.rule.id for f in findings
                   if include_suppressed or not f.suppressed})


# -- rule detection ----------------------------------------------------------
def test_vrc001_unseeded_random():
    hits = L.lint_source(
        "import random\n"
        "r = random.Random()\n"
        "x = random.randint(0, 7)\n")
    assert ids(hits) == ["VRC001"]
    assert len(hits) == 2


def test_vrc001_numpy_global_state():
    hits = L.lint_source(
        "import numpy as np\n"
        "a = np.random.rand(4)\n"
        "rng = np.random.default_rng()\n")
    assert ids(hits) == ["VRC001"]
    assert len(hits) == 2


def test_vrc001_seeded_random_ok():
    hits = L.lint_source(
        "import random\n"
        "import numpy as np\n"
        "r = random.Random(7)\n"
        "rng = np.random.default_rng(7)\n"
        "x = r.randint(0, 7)\n")
    assert hits == []


def test_vrc002_wall_clock():
    hits = L.lint_source(
        "import time\n"
        "t = time.time()\n"
        "p = time.perf_counter()\n", path="src/repro/core/base.py")
    assert ids(hits) == ["VRC002"]
    assert len(hits) == 2


def test_vrc002_exempt_in_telemetry_and_profiler():
    src = "import time\nt = time.perf_counter()\n"
    assert L.lint_source(src, path="src/repro/telemetry/session.py") == []
    assert L.lint_source(src, path="src/repro/profiler.py") == []
    assert L.lint_source(src, path="tests/system/test_sweeps.py") == []


def test_vrc003_set_iteration():
    hits = L.lint_source(
        "for x in {1, 2, 3}:\n"
        "    pass\n"
        "ys = [y for y in set(range(4))]\n"
        "zs = list(set(range(4)))\n"          # bare conversion: allowed
        "for z in list(set(range(4))):\n"     # iterating it: flagged
        "    pass\n")
    assert ids(hits) == ["VRC003"]
    assert len(hits) == 3


def test_vrc003_sorted_set_ok():
    hits = L.lint_source(
        "for x in sorted({3, 1, 2}):\n"
        "    pass\n"
        "for y in sorted(set(range(4))):\n"
        "    pass\n")
    assert hits == []


def test_vrc004_bare_assert():
    hits = L.lint_source("def f(x):\n    assert x > 0, 'bad'\n    return x\n")
    assert ids(hits) == ["VRC004"]


def test_vrc005_mutable_defaults():
    hits = L.lint_source(
        "def f(a=[], b={}, c=dict(), *, d=set()):\n"
        "    return a, b, c, d\n"
        "def g(a=None, b=(), c=0):\n"
        "    return a, b, c\n")
    assert ids(hits) == ["VRC005"]
    assert len(hits) == 4


def test_syntax_error_reported_not_raised():
    hits = L.lint_source("def f(:\n")
    assert len(hits) == 1
    assert hits[0].rule.id == "VRC000"


# -- suppression -------------------------------------------------------------
@pytest.mark.parametrize("comment", ["# noqa: VRC004",
                                     "# lint: ignore[VRC004]",
                                     "# noqa"])
def test_inline_suppression(comment):
    hits = L.lint_source(f"assert True  {comment}\n")
    assert len(hits) == 1
    assert hits[0].suppressed


def test_suppression_is_rule_specific():
    hits = L.lint_source("assert True  # noqa: VRC001\n")
    assert len(hits) == 1
    assert not hits[0].suppressed


def test_suppressed_findings_do_not_fail():
    hits = L.lint_source("assert True  # lint: ignore[VRC004]\n")
    assert L.exit_code(hits, fail_on="error") == 0


# -- selection and gating ----------------------------------------------------
BAD = ("import random, time\n"
       "def f(x=[]):\n"
       "    assert x\n"
       "    for s in {1, 2}:\n"
       "        pass\n"
       "    return random.random() + time.time()\n")


def test_select_and_ignore():
    assert ids(L.lint_source(BAD, select=["VRC001"])) == ["VRC001"]
    assert "VRC004" not in ids(L.lint_source(BAD, ignore=["VRC004"]))
    with pytest.raises(ValueError, match="unknown lint rule"):
        L.lint_source(BAD, select=["VRC999"])


def test_exit_code_thresholds():
    warning_only = L.lint_source("for x in {1, 2}:\n    pass\n")
    assert ids(warning_only) == ["VRC003"]
    assert L.exit_code(warning_only, fail_on="error") == 0
    assert L.exit_code(warning_only, fail_on="warning") == 1
    assert L.exit_code(warning_only, fail_on="none") == 0
    errors = L.lint_source("assert True\n")
    assert L.exit_code(errors, fail_on="error") == 1


# -- output formats ----------------------------------------------------------
def test_json_render():
    payload = json.loads(L.render_json(L.lint_source(BAD, path="bad.py")))
    assert payload["summary"]["error"] >= 4
    assert payload["summary"]["warning"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert {"VRC001", "VRC002", "VRC003", "VRC004", "VRC005"} <= rules
    first = payload["findings"][0]
    assert {"rule", "severity", "path", "line", "col",
            "message", "suppressed"} <= set(first)


def test_text_render_mentions_rule_and_location():
    text = L.render_text(L.lint_source("assert True\n", path="mod.py"))
    assert "mod.py:1:1: VRC004 [error]" in text
    assert "finding(s)" in text


# -- the CLI verb ------------------------------------------------------------
def test_cli_lint_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    assert cli_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "VRC001" in out and "VRC004" in out

    clean = tmp_path / "clean.py"
    clean.write_text("def f(a=None):\n    return a\n")
    assert cli_main(["lint", str(clean)]) == 0


def test_cli_lint_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    assert cli_main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] >= 5


def test_cli_lint_unknown_rule_is_usage_error(tmp_path, capsys):
    f = tmp_path / "x.py"
    f.write_text("pass\n")
    assert cli_main(["lint", str(f), "--select", "VRC999"]) == 2


# -- the tree itself ---------------------------------------------------------
def test_src_tree_is_clean():
    """`repro lint src/` must stay clean (the CI gate); the only allowed
    suppressions are the documented host-side watchdog reads and the
    worker pickling probes."""
    findings = L.lint_paths([str(SRC_DIR)])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)
    suppressed = [f for f in findings if f.suppressed]
    assert all("sweeps.py" in f.path or "exec/workers.py" in f.path
               for f in suppressed)


def test_vrc006_print_in_library():
    hits = L.lint_source(
        "def f(x):\n"
        "    print('debug', x)\n"
        "    return x\n", path="src/repro/core/base.py")
    assert ids(hits) == ["VRC006"]
    assert len(hits) == 1


def test_vrc006_exempt_surfaces():
    src = "print('hello')\n"
    # user-facing surfaces and non-library trees may print directly
    for path in ("src/repro/cli.py", "src/repro/stats/reporting.py",
                 "src/repro/system/monitor.py", "experiments/common.py",
                 "tests/system/test_cli.py", "benchmarks/bench_x.py"):
        assert L.lint_source(src, path=path) == [], path


def test_vrc006_method_named_print_ok():
    # only the bare builtin is flagged; obj.print() is someone's API
    hits = L.lint_source(
        "def f(w):\n"
        "    w.print('fine')\n", path="src/repro/core/base.py")
    assert hits == []


def test_vrc006_suppressible():
    hits = L.lint_source(
        "print('meant it')  # noqa: VRC006\n",
        path="src/repro/core/base.py")
    assert len(hits) == 1
    assert hits[0].suppressed


def test_vrc007_bare_except():
    hits = L.lint_source(
        "try:\n"
        "    run()\n"
        "except:\n"
        "    pass\n", path="src/repro/core/base.py")
    assert ids(hits) == ["VRC007"]


def test_vrc007_except_exception_and_tuple():
    hits = L.lint_source(
        "try:\n"
        "    run()\n"
        "except Exception:\n"
        "    log()\n"
        "try:\n"
        "    run()\n"
        "except (ValueError, BaseException):\n"
        "    log()\n", path="src/repro/system/sweeps.py")
    assert ids(hits) == ["VRC007"]
    assert len(hits) == 2


def test_vrc007_reraise_ok():
    # a handler that re-raises (even conditionally) propagates the failure
    hits = L.lint_source(
        "try:\n"
        "    run()\n"
        "except Exception as exc:\n"
        "    if transient(exc):\n"
        "        raise\n"
        "    note(exc)\n", path="src/repro/core/base.py")
    assert hits == []


def test_vrc007_specific_types_ok():
    hits = L.lint_source(
        "try:\n"
        "    run()\n"
        "except (OSError, ValueError):\n"
        "    pass\n", path="src/repro/core/base.py")
    assert hits == []


def test_vrc007_exempt_trees_and_suppression():
    src = "try:\n    run()\nexcept Exception:\n    pass\n"
    for path in ("tests/system/test_x.py", "experiments/common.py",
                 "scripts/tool.py"):
        assert L.lint_source(src, path=path) == [], path
    hits = L.lint_source(
        "try:\n"
        "    run()\n"
        "except Exception:  # noqa: VRC007\n"
        "    pass\n", path="src/repro/exec/workers.py")
    assert len(hits) == 1
    assert hits[0].suppressed


def test_vrc008_unregistered_counter_key():
    hits = L.lint_source(
        "class C:\n"
        "    def f(self):\n"
        "        self.stats.inc('cyclez')\n"          # typo: flagged
        "        self.stats.set('hitz', 3)\n"         # typo: flagged
        "        self.stats.max('cycles', 7)\n"       # registered: ok
        "        core_stats.inc('hits')\n"            # registered: ok
        "        self.registry.inc('whatever')\n"     # not a Stats tree
        "        self.stats.inc(key)\n",              # dynamic key: ok
        path="src/repro/core/base.py")
    assert ids(hits) == ["VRC008"]
    assert len(hits) == 2
    assert "cyclez" in hits[0].message


def test_vrc008_child_chain_receiver():
    hits = L.lint_source(
        "self.stats.child('cycle_causes').set('dataflw', 1)\n",
        path="src/repro/core/ooo.py")
    assert ids(hits) == ["VRC008"]
    ok = L.lint_source(
        "self.stats.child('cycle_causes').set('dataflow', 1)\n",
        path="src/repro/core/ooo.py")
    assert ok == []


def test_vrc008_checks_every_batch_key():
    hits = L.lint_source(
        "self._pending = self.stats.batch('hits', 'missez', 'evictionz')\n",
        path="src/repro/virec/vrmu.py")
    assert ids(hits) == ["VRC008"]
    assert len(hits) == 2
    assert "missez" in hits[0].message and "evictionz" in hits[1].message
    ok = L.lint_source(
        "self._pending = self.stats.batch('hits', 'misses')\n",
        path="src/repro/virec/vrmu.py")
    assert ok == []


def test_vrc008_exempt_trees_and_suppression():
    src = "self.stats.inc('scratch_counter')\n"
    for path in ("tests/core/test_x.py", "benchmarks/bench_x.py",
                 "scripts/tool.py"):
        assert L.lint_source(src, path=path) == [], path
    hits = L.lint_source(
        "self.stats.inc('scratch_counter')  # noqa: VRC008\n",
        path="src/repro/core/base.py")
    assert len(hits) == 1
    assert hits[0].suppressed


def test_vrc008_registry_agrees_with_the_tree():
    """Every literal counter key in src/ is registered (the CI gate), and
    is_registered mirrors membership."""
    from repro.stats.names import COUNTER_NAMES, is_registered
    findings = [f for f in L.lint_paths([str(SRC_DIR)])
                if f.rule.id == "VRC008" and not f.suppressed]
    assert findings == [], "\n".join(f.render() for f in findings)
    assert is_registered("cycles")
    assert not is_registered("cyclez")
    assert COUNTER_NAMES  # non-empty, frozen


# -- VRC009: ad-hoc ReplacementPolicy construction ---------------------------
def test_vrc009_direct_construction_flagged():
    hits = L.lint_source(
        "from repro.virec.policies import LRC, DeadFirstLRC\n"
        "p = LRC(16)\n"
        "q = DeadFirstLRC(capacity)\n",
        path="src/repro/virec/vrmu.py")
    assert ids(hits) == ["VRC009"]
    assert len(hits) == 2
    assert "from_spec" in hits[0].message


def test_vrc009_attribute_leaf_flagged():
    hits = L.lint_source(
        "import repro.virec.policies as pol\n"
        "p = pol.PLRU(8)\n",
        path="src/repro/system/simulator.py")
    assert ids(hits) == ["VRC009"]


def test_vrc009_factory_and_unrelated_calls_ok():
    assert L.lint_source(
        "from repro.virec.policies import ReplacementPolicy, make_policy\n"
        "p = make_policy('lrc', 16)\n"
        "q = ReplacementPolicy.from_spec('dead-first', 16)\n"
        "r = LRCsomething(16)\n",
        path="src/repro/virec/vrmu.py") == []


def test_vrc009_exempt_trees_and_suppression():
    src = "p = LRC(16)\n"
    for path in ("tests/virec/test_x.py", "benchmarks/bench_x.py",
                 "src/repro/virec/policies.py"):
        assert L.lint_source(src, path=path) == [], path
    hits = L.lint_source("p = LRC(16)  # noqa: VRC009\n",
                         path="src/repro/virec/vrmu.py")
    assert len(hits) == 1 and hits[0].suppressed


def test_vrc009_library_tree_is_clean():
    """No ad-hoc policy construction anywhere in src/ (the CI gate)."""
    findings = [f for f in L.lint_paths([str(SRC_DIR)])
                if f.rule.id == "VRC009" and not f.suppressed]
    assert findings == [], "\n".join(f.render() for f in findings)


# -- VRC011: raw sqlite3.connect outside the ledger package ------------------
def test_vrc011_raw_connect_flagged():
    hits = L.lint_source(
        "import sqlite3\n"
        "conn = sqlite3.connect('results.db')\n",
        path="src/repro/system/sweeps.py")
    assert ids(hits) == ["VRC011"]
    assert hits[0].rule.severity == "error"
    assert "Recorder/LedgerReader" in hits[0].message


def test_vrc011_aliased_module_flagged():
    hits = L.lint_source(
        "import sqlite3 as sql3\n"
        "conn = sql3.sqlite3.connect('x.db')\n",
        path="src/repro/core/base.py")
    # only the dotted leaf module matters: <...>.sqlite3.connect is flagged
    assert ids(hits) == ["VRC011"]


def test_vrc011_other_connects_ok():
    assert L.lint_source(
        "conn = server.connect('host')\n"
        "c = sqlite3.Connection('x.db')\n",
        path="src/repro/core/base.py") == []


def test_vrc011_ledger_package_exempt():
    src = "import sqlite3\nconn = sqlite3.connect(path)\n"
    for path in ("src/repro/ledger/store.py",
                 "tests/ledger/test_store.py",
                 "benchmarks/bench_x.py",
                 "scripts/inspect_db.py"):
        assert L.lint_source(src, path=path) == [], path


def test_vrc011_suppressible():
    hits = L.lint_source(
        "conn = sqlite3.connect(p)  # noqa: VRC011\n",
        path="src/repro/system/sweeps.py")
    assert len(hits) == 1 and hits[0].suppressed


def test_vrc011_library_tree_is_clean():
    """All ledger access in src/ goes through the Recorder/LedgerReader
    API (the CI gate)."""
    findings = [f for f in L.lint_paths([str(SRC_DIR)])
                if f.rule.id == "VRC011" and not f.suppressed]
    assert findings == [], "\n".join(f.render() for f in findings)
