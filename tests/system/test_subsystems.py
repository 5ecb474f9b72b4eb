"""The opt-in layers, row by row (``repro/subsystems.py``).

Parametrised over :data:`~repro.subsystems.SUBSYSTEMS` so a sixth row is
covered the day it is added.
"""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import repro
from repro.core.base import TimelineCore
from repro.subsystems import SUBSYSTEMS, requested
from repro.system import NearMemoryNode, RunConfig, run_config

ROWS = pytest.mark.parametrize("row", SUBSYSTEMS, ids=lambda row: row.field)

#: a spec that parses to an enabled config, where the defaults do not
_ENABLED = {"faults": {"rf_rate": 1e-3, "scheme": "ecc"}}


def enabled_spec(row):
    return _ENABLED.get(row.field) or import_module(row.package).CONFIG()


def small(**kw):
    return RunConfig(workload="gather", core_type="banked", n_threads=2,
                     n_per_thread=8, **kw)


@pytest.fixture
def nodes(monkeypatch):
    """Every NearMemoryNode a test's run_config calls build."""
    seen = []
    init = NearMemoryNode.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        seen.append(self)

    monkeypatch.setattr(NearMemoryNode, "__init__", recording_init)
    return seen


def assert_nothing_wired(row, result, node):
    (core,) = node.cores
    assert core.bus.empty
    assert core.fault_hook is None
    assert (core._process_instruction.__func__
            is TimelineCore._process_instruction_compiled)
    if row.result:
        assert getattr(result, row.result) is None


# ------------------------------------------------------------------ off
@ROWS
def test_field_none_wires_nothing(row, nodes):
    cfg = small()
    assert getattr(cfg, row.field) is None and requested(cfg) == []
    assert_nothing_wired(row, run_config(cfg), nodes[-1])


@ROWS
def test_disabled_spec_wires_nothing(row, nodes):
    all_off = import_module(row.package).CONFIG.from_spec(None)
    assert not all_off.enabled
    cfg = small(**{row.field: all_off})
    assert requested(cfg) == []
    assert_nothing_wired(row, run_config(cfg), nodes[-1])


@ROWS
def test_enabled_spec_is_wired(row, nodes):
    result = run_config(small(**{row.field: enabled_spec(row)}))
    (core,) = nodes[-1].cores
    assert not core.bus.empty
    if row.result:
        assert getattr(result, row.result) is not None


# ----------------------------------------------------------- validation
@ROWS
def test_unknown_field_rejected_at_config_time(row):
    with pytest.raises(ValueError,
                       match=rf"unknown {row.field} field\(s\) \['nope'\]; "
                             r"choose from \['"):
        RunConfig(**{row.field: {"nope": 1}})


@ROWS
def test_wrong_type_names_the_class_and_the_type(row):
    cls = import_module(row.package).CONFIG.__name__
    with pytest.raises(TypeError, match=rf"{cls} or a mapping.* not int"):
        RunConfig(**{row.field: 3})


# ------------------------------------------------------------------ ooo
@ROWS
def test_ooo_rejects_an_enabled_layer_at_run_time(row):
    cfg = RunConfig(workload="gather", core_type="ooo", n_threads=1,
                    n_per_thread=16, **{row.field: enabled_spec(row)})
    with pytest.raises(ValueError, match=rf"'ooo'.*drop {row.field}$"):
        run_config(cfg)


@ROWS
def test_ooo_runs_with_a_disabled_layer(row):
    all_off = import_module(row.package).CONFIG.from_spec(None)
    r = run_config(RunConfig(workload="gather", core_type="ooo", n_threads=1,
                             n_per_thread=16, **{row.field: all_off}))
    assert r.correct and r.cycles > 0


# ---------------------------------------------------------------- order
def all_on(**kw):
    return small(**{row.field: enabled_spec(row) for row in SUBSYSTEMS}, **kw)


def test_requested_is_in_table_order():
    assert [row for row, _, _ in requested(all_on())] == list(SUBSYSTEMS)
    assert [row.field for row in SUBSYSTEMS] == [
        "faults", "telemetry", "metrics", "profile", "sanitize"]


def test_wiring_and_run_end_order(monkeypatch):
    log = []

    class Handle:
        event_count = 0  # the driver reads it off the telemetry handle

        def __init__(self, field):
            self.field = field

        def verify(self):
            log.append((self.field, "verify"))

        def finalize(self):
            log.append((self.field, "finalize"))

    def recording_wire(row):
        def wire(conf, cfg, node, instances):
            log.append((row.field, "wire"))
            return Handle(row.field)
        return wire

    for row in SUBSYSTEMS:
        monkeypatch.setattr(import_module(row.package), "wire",
                            recording_wire(row))
    result = run_config(all_on())
    assert log == [
        ("faults", "wire"), ("telemetry", "wire"), ("metrics", "wire"),
        ("profile", "wire"), ("sanitize", "wire"),
        ("sanitize", "verify"), ("profile", "verify"),
        ("profile", "finalize"), ("metrics", "finalize"),
        ("telemetry", "finalize")]
    for row in SUBSYSTEMS:
        if row.result:
            assert getattr(result, row.result).field == row.field


# -------------------------------------------------------------- imports
def test_a_plain_run_imports_no_layer_it_did_not_ask_for():
    code = ("import sys\n"
            "from repro.system import RunConfig, run_config\n"
            "run_config(RunConfig(workload='gather', n_threads=2,"
            " n_per_thread=8))\n"
            "print(sorted(m for m in ('repro.faults', 'repro.metrics',"
            " 'repro.profiling', 'repro.sanitizer') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
