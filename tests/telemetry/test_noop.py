"""Telemetry must be purely observational.

The hard guarantee of the observability layer: a run with telemetry *on*
produces exactly the same simulated behaviour — cycle counts, instruction
counts, and the entire stats tree — as the same run with telemetry off.
(The instruments only read simulator state; they never touch a timestamp.)
"""

import pytest

from repro.system import RunConfig, run_config

FULL_TELEMETRY = {"events": True, "interval": 100, "pipeline_trace": True}


@pytest.mark.parametrize("core_type", ["virec", "banked", "swctx", "fgmt",
                                       "nsf", "prefetch-exact"])
def test_telemetry_does_not_change_cycles(core_type):
    base = RunConfig(workload="gather", core_type=core_type,
                     n_threads=4, n_per_thread=16)
    off = run_config(base)
    on = run_config(base.with_(telemetry=FULL_TELEMETRY))
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert on.ipc == off.ipc
    assert on.stats.as_dict() == off.stats.as_dict()


def test_telemetry_multicore_identical():
    base = RunConfig(workload="spmv", core_type="virec",
                     n_threads=4, n_per_thread=8, n_cores=2)
    off = run_config(base)
    on = run_config(base.with_(telemetry=FULL_TELEMETRY))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


@pytest.mark.parametrize("core_type", ["banked", "prefetch-exact"])
def test_telemetry_on_chained_node_identical(core_type):
    """A bare node core chains the ops no peer can observe, an observed
    one steps one op at a time: the two runs must still agree on the
    whole stats tree."""
    base = RunConfig(workload="spmv", core_type=core_type,
                     n_threads=4, n_per_thread=8, n_cores=2)
    off = run_config(base)
    on = run_config(base.with_(telemetry=FULL_TELEMETRY))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_telemetry_with_faults_identical():
    """Telemetry observing a fault campaign must not perturb it."""
    base = RunConfig(workload="gather", core_type="virec",
                     n_threads=4, n_per_thread=16,
                     faults={"rf_rate": 1e-4, "scheme": "ecc"})
    off = run_config(base)
    on = run_config(base.with_(telemetry=FULL_TELEMETRY))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_telemetry_off_wires_nothing():
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=2, n_per_thread=8))
    assert r.telemetry is None


def test_ooo_rejects_telemetry():
    cfg = RunConfig(workload="gather", core_type="ooo", n_threads=1,
                    n_per_thread=16, telemetry={"events": True})
    with pytest.raises(ValueError, match="ooo"):
        run_config(cfg)


def test_unknown_telemetry_field_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown telemetry field"):
        RunConfig(telemetry={"evnets": True})
    # the fault spec validates the same way as the other subsystem specs
    with pytest.raises(ValueError, match=r"unknown faults field\(s\) "
                                         r"\['rat'\]; choose from"):
        RunConfig(faults={"rat": 1})
    with pytest.raises(TypeError, match="FaultConfig or a mapping"):
        RunConfig(faults=3)
    assert RunConfig(faults={"scheduled": [[5, "rf"]]}).faults is not None


# --------------------------------------------------------- the observers
# Telemetry is one of the core's observers: attaching must switch the step
# table to its observed variant, and the instrumented run must commit on
# exactly the bare variant's clock (the observer-level restatement of the
# cycle tests above — see repro/core/instrument.py).

def test_attach_goes_through_the_bus():
    from repro.core.base import TimelineCore
    from repro.core.cgmt import BankedCore
    from repro.telemetry import TelemetryConfig, TelemetrySession

    from ..helpers import build_gather_core

    core, _, _, _ = build_gather_core(BankedCore, n_threads=2, n=8)
    assert core.observers == ()
    assert (core._process_instruction.__func__
            is TimelineCore._process_instruction_compiled)
    assert not core._engine_variant().observed

    session = TelemetrySession(TelemetryConfig(
        events=True, interval=50, metrics=False, profile=False))
    session.attach(core)
    assert core.observers == tuple(session.cores)
    assert (core._process_instruction.__func__
            is TimelineCore._process_instruction_compiled)
    assert core._engine_variant().observed


def test_bus_attached_run_is_cycle_identical_to_fast_path():
    from repro.core.cgmt import BankedCore
    from repro.telemetry import TelemetryConfig, TelemetrySession

    from ..helpers import build_gather_core

    bare, _, _, _ = build_gather_core(BankedCore, n_threads=4, n=32)
    bare.run()

    observed, _, _, _ = build_gather_core(BankedCore, n_threads=4, n=32)
    TelemetrySession(TelemetryConfig(events=True, interval=25,
                                     pipeline_trace=True)).attach(observed)
    assert len(observed.observers) == 4   # adapter, tracer, counter, tiles
    observed.run()

    assert observed.commit_tail == bare.commit_tail
    assert observed.stats.as_dict() == bare.stats.as_dict()
