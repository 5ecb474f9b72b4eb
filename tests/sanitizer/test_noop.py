"""VSan must be purely observational.

The hard guarantee of the sanitizer (mirroring tests/telemetry/test_noop.py):
a run with ``sanitize=`` *on* that finds no violation produces exactly the
same simulated behaviour — cycle counts, instruction counts, and the entire
stats tree — as the same run with the sanitizer off.  The shadow state only
reads simulator state; it never touches a timestamp.
"""

import pytest

from repro.errors import SanitizerViolation, TRANSIENT_ERRORS
from repro.system import RunConfig, run_config

FULL_SANITIZE = {"granularity": "commit", "shadow": True,
                 "structures": True, "backing_bounds": True}


@pytest.mark.parametrize("core_type", ["virec", "banked", "swctx", "fgmt",
                                       "nsf", "prefetch-exact"])
def test_sanitizer_does_not_change_cycles(core_type):
    base = RunConfig(workload="gather", core_type=core_type,
                     n_threads=4, n_per_thread=16)
    off = run_config(base)
    on = run_config(base.with_(sanitize=FULL_SANITIZE))
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert on.ipc == off.ipc
    assert on.stats.as_dict() == off.stats.as_dict()
    assert on.sanitizer is not None
    assert on.sanitizer.stats()["shadow_commits"] > 0
    assert on.sanitizer.stats()["frozen_threads"] == 0


@pytest.mark.parametrize("granularity", ["commit", "interval", "run"])
def test_every_granularity_cycle_identical(granularity):
    base = RunConfig(workload="spmv", core_type="virec",
                     n_threads=4, n_per_thread=16)
    off = run_config(base)
    on = run_config(base.with_(sanitize={"granularity": granularity,
                                         "interval": 100}))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_sanitizer_multicore_identical():
    base = RunConfig(workload="spmv", core_type="virec",
                     n_threads=4, n_per_thread=8, n_cores=2)
    off = run_config(base)
    on = run_config(base.with_(sanitize=FULL_SANITIZE))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()
    assert on.sanitizer.stats()["cores"] == 2


def test_sanitizer_with_corrected_faults_identical():
    """ECC-protected injection: recovery happens, VSan verifies the
    recovered state really is architecturally correct, and timing is
    untouched by the verification."""
    base = RunConfig(workload="gather", core_type="virec",
                     n_threads=4, n_per_thread=16,
                     faults={"rf_rate": 1e-4, "scheme": "ecc"})
    off = run_config(base)
    on = run_config(base.with_(sanitize=FULL_SANITIZE))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_sanitizer_with_telemetry_identical():
    base = RunConfig(workload="gather", core_type="virec",
                     n_threads=4, n_per_thread=16)
    off = run_config(base)
    on = run_config(base.with_(sanitize=FULL_SANITIZE,
                               telemetry={"events": True, "interval": 100}))
    assert on.cycles == off.cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_sanitize_off_wires_nothing():
    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=2, n_per_thread=8))
    assert r.sanitizer is None


def test_disabled_spec_wires_nothing():
    r = run_config(RunConfig(
        workload="gather", core_type="virec", n_threads=2, n_per_thread=8,
        sanitize={"shadow": False, "structures": False,
                  "backing_bounds": False}))
    assert r.sanitizer is None


def test_ooo_rejects_sanitize():
    cfg = RunConfig(workload="gather", core_type="ooo", n_threads=1,
                    n_per_thread=16, sanitize=True)
    with pytest.raises(ValueError, match="ooo"):
        run_config(cfg)


def test_unknown_sanitize_field_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown sanitize field"):
        RunConfig(sanitize={"granulraity": "commit"})


def test_bad_granularity_rejected_eagerly():
    with pytest.raises(ValueError, match="granularity"):
        RunConfig(sanitize={"granularity": "sometimes"})


def test_violation_is_not_transient():
    """A violation signals a real coherence bug: sweeps must record it,
    never paper over it with a reseeded retry."""
    assert not issubclass(SanitizerViolation, TRANSIENT_ERRORS)
    assert issubclass(SanitizerViolation, AssertionError)


# ----------------------------------------------------- the instrument bus
# VSan rides the core's InstrumentBus (slot ``sanitizer``, dispatched after
# the architectural update, before the tracer): attaching must flip the
# core off its fast path, and the checked run must commit on exactly the
# fast path's clock.

def test_attach_goes_through_the_bus():
    from repro.core.base import TimelineCore
    from repro.core.cgmt import BankedCore
    from repro.sanitizer import Sanitizer

    from ..helpers import build_gather_core

    core, mem, _, _ = build_gather_core(BankedCore, n_threads=2, n=8)
    assert core.bus.empty
    assert (core._process_instruction.__func__
            is TimelineCore._process_instruction_compiled)

    cs = Sanitizer().attach(core, mem)
    assert core.bus.sanitizer is cs is core.sanitizer
    assert (core._process_instruction.__func__
            is TimelineCore._reference_step)


def test_bus_attached_run_is_cycle_identical_to_fast_path():
    from repro.core.cgmt import BankedCore
    from repro.sanitizer import Sanitizer

    from ..helpers import build_gather_core

    bare, _, _, _ = build_gather_core(BankedCore, n_threads=4, n=32)
    bare.run()

    checked, mem, _, _ = build_gather_core(BankedCore, n_threads=4, n=32)
    vsan = Sanitizer()
    vsan.attach(checked, mem)
    checked.run()
    vsan.finalize(checked.commit_tail)       # run-end sweep finds no bug

    assert checked.commit_tail == bare.commit_tail
    assert checked.stats.as_dict() == bare.stats.as_dict()
    assert checked.sanitizer.shadow is not None
