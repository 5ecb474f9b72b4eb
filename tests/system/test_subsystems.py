"""The opt-in layers, row by row and field by field (``repro/subsystems.py``).

Parametrised over :data:`~repro.subsystems.SUBSYSTEMS` — per row where a
layer has a disabled spec, per ``RunConfig`` field everywhere else — so a
new row or field is covered the day it is added.
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

#: ``(field, row, RunResult field)`` for every layer field
FIELDS = [(field, row, result) for row in SUBSYSTEMS
          for field, result in zip(row.fields, row.results)]
BY_FIELD = pytest.mark.parametrize("field,row,result", FIELDS,
                                   ids=[field for field, _, _ in FIELDS])

#: the rows whose config has an all-off form besides ``None``
DISABLED = [row for row in SUBSYSTEMS
            if hasattr(import_module(row.package).CONFIG, "enabled")]
BY_DISABLED_ROW = pytest.mark.parametrize(
    "row", DISABLED, ids=[row.fields[0] for row in DISABLED])

#: a spec each field accepts that turns its layer on
ENABLED = {"faults": {"rf_rate": 1e-3, "scheme": "ecc"},
           "telemetry": {"events": True}, "metrics": True, "profile": True,
           "sanitize": True}


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


def assert_nothing_wired(result, node):
    (core,) = node.cores
    assert core.observers == ()
    assert core.fault_hook is None
    assert (core._process_instruction.__func__
            is TimelineCore._process_instruction_compiled)
    assert not core._engine_variant().observed
    for _, _, name in FIELDS:
        if name:
            assert getattr(result, name) is None


# ------------------------------------------------------------------ off
@BY_FIELD
def test_field_none_wires_nothing(field, row, result, nodes):
    cfg = small()
    assert getattr(cfg, field) is None and requested(cfg) == []
    assert_nothing_wired(run_config(cfg), nodes[-1])


@BY_DISABLED_ROW
def test_disabled_spec_wires_nothing(row, nodes):
    all_off = import_module(row.package).CONFIG.from_spec(None)
    assert not all_off.enabled
    cfg = small(**{row.fields[0]: all_off})
    assert requested(cfg) == []
    assert_nothing_wired(run_config(cfg), nodes[-1])


@BY_FIELD
def test_enabled_spec_is_wired(field, row, result, nodes):
    run = run_config(small(**{field: ENABLED[field]}))
    (core,) = nodes[-1].cores
    assert core.fault_hook is not None or core.observers
    # the handle lands on this field's result only
    for _, _, name in FIELDS:
        if name:
            assert (getattr(run, name) is not None) == (name == result)


def test_the_observe_fields_share_one_session(nodes):
    run = run_config(small(telemetry={"events": True}, metrics=True,
                           profile=True))
    assert run.telemetry is run.metrics is run.profile
    (core,) = nodes[-1].cores
    session = run.telemetry
    assert core.observers == (*session.cores, *session.counters,
                              *session.attributors)


# ----------------------------------------------------------- validation
@BY_FIELD
def test_unknown_field_rejected_at_config_time(field, row, result):
    with pytest.raises(ValueError,
                       match=rf"unknown {field} field\(s\) \['nope'\]; "
                             r"choose from \["):
        RunConfig(**{field: {"nope": 1}})


@BY_FIELD
def test_wrong_type_names_the_class_and_the_type(field, row, result):
    config = import_module(row.package).CONFIG
    # the observe fields take mappings only: the config class is their
    # parse, not a spec
    accepted = ("" if len(row.fields) > 1
                else rf"a {config.__name__} or ")
    with pytest.raises(TypeError,
                       match=rf"^{field} spec must be {accepted}a mapping.* "
                             r"not int$"):
        RunConfig(**{field: 3})


# ------------------------------------------------------------------ ooo
@BY_FIELD
def test_ooo_rejects_an_enabled_layer_at_run_time(field, row, result):
    cfg = RunConfig(workload="gather", core_type="ooo", n_threads=1,
                    n_per_thread=16, **{field: ENABLED[field]})
    with pytest.raises(ValueError, match=rf"'ooo'.*drop {field}$"):
        run_config(cfg)


@BY_DISABLED_ROW
def test_ooo_runs_with_a_disabled_layer(row):
    all_off = import_module(row.package).CONFIG.from_spec(None)
    r = run_config(RunConfig(workload="gather", core_type="ooo", n_threads=1,
                             n_per_thread=16, **{row.fields[0]: all_off}))
    assert r.correct and r.cycles > 0


# ---------------------------------------------------------------- order
def all_on(**kw):
    return small(**{field: ENABLED[field] for field, _, _ in FIELDS}, **kw)


def test_requested_is_in_table_order():
    assert [row for row, _, _ in requested(all_on())] == list(SUBSYSTEMS)
    assert [row.fields for row in SUBSYSTEMS] == [
        ("faults",), ("telemetry", "metrics", "profile"), ("sanitize",)]


def test_wiring_and_run_end_order(monkeypatch):
    log = []

    class Handle:
        event_count = 0  # the driver reads it off the telemetry handle

        def __init__(self, package):
            self.package = package

        def verify(self):
            log.append((self.package, "verify"))

        def finalize(self):
            log.append((self.package, "finalize"))

    def recording_wire(row):
        def wire(conf, cfg, node, instances):
            log.append((row.package, "wire"))
            return Handle(row.package)
        return wire

    for row in SUBSYSTEMS:
        monkeypatch.setattr(import_module(row.package), "wire",
                            recording_wire(row))
    result = run_config(all_on())
    assert log == [
        ("repro.faults", "wire"), ("repro.telemetry", "wire"),
        ("repro.sanitizer", "wire"),
        ("repro.sanitizer", "verify"), ("repro.telemetry", "verify"),
        ("repro.telemetry", "finalize")]
    for _, row, name in FIELDS:
        if name:
            assert getattr(result, name).package == row.package


# -------------------------------------------------------------- imports
def test_a_plain_run_imports_no_layer_it_did_not_ask_for():
    code = ("import sys\n"
            "from repro.system import RunConfig, run_config\n"
            "run_config(RunConfig(workload='gather', n_threads=2,"
            " n_per_thread=8))\n"
            "print(sorted(m for m in sys.modules if m.startswith(("
            "'repro.faults', 'repro.telemetry', 'repro.sanitizer'))))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
