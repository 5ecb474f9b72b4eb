"""Fault-injection subsystem: config validation, schemes, determinism."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import build_gather_core  # noqa: E402

from repro.core.cgmt import BankedCore  # noqa: E402
from repro.errors import (FaultEscapeError, FunctionalCheckError,  # noqa: E402
                          SimulationError)
from repro.faults import (SCHEMES, SITES, FaultConfig,  # noqa: E402
                          FaultInjector, get_scheme)
from repro.system import RunConfig, run_config  # noqa: E402


def _cfg(**kw):
    base = dict(workload="gather", core_type="virec", n_threads=4,
                n_per_thread=8)
    base.update(kw)
    return RunConfig(**base)


def _fault_stat(result, name):
    return sum(v for k, v in result.stats.flat()
               if k.endswith(f"faults.{name}"))


# -- FaultConfig --------------------------------------------------------------
class TestFaultConfig:
    def test_defaults_disabled(self):
        assert not FaultConfig().enabled

    def test_any_rate_or_schedule_enables(self):
        assert FaultConfig(rf_rate=1e-6).enabled
        assert FaultConfig(tag_rate=1e-6).enabled
        assert FaultConfig(backing_rate=1e-6).enabled
        assert FaultConfig(scheduled=((10, "rf"),)).enabled

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(rf_rate=-1e-6)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(scheme="chilled")
        for name in ("none", "parity", "ecc", "refill"):
            assert get_scheme(name) is SCHEMES[name]

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(scheduled=((10, "l2"),))
        with pytest.raises(ValueError):
            FaultConfig(scheduled=((-1, "rf"),))

    def test_from_spec_forms(self):
        assert not FaultConfig.from_spec(None).enabled
        fc = FaultConfig(rf_rate=1e-4)
        assert FaultConfig.from_spec(fc) is fc
        fc2 = FaultConfig.from_spec({"rf_rate": 1e-4, "scheme": "parity",
                                     "scheduled": [[5, "tag"]]})
        assert fc2.scheme == "parity"
        assert fc2.scheduled == ((5, "tag"),)

    def test_runconfig_validates_fault_spec(self):
        with pytest.raises(ValueError):
            _cfg(faults={"rf_rate": -1.0})
        with pytest.raises(ValueError, match="unknown faults field"):
            _cfg(faults={"bogus_field": 1.0})


# -- strict opt-in ------------------------------------------------------------
class TestOptIn:
    def test_rate_zero_bit_identical(self):
        clean = run_config(_cfg())
        gated = run_config(_cfg(faults={"rf_rate": 0.0, "tag_rate": 0.0,
                                        "backing_rate": 0.0}))
        assert (gated.cycles, gated.instructions) == \
               (clean.cycles, clean.instructions)
        assert _fault_stat(gated, "faults_injected") == 0

    def test_rate_zero_banked_bit_identical(self):
        clean = run_config(_cfg(core_type="banked"))
        gated = run_config(_cfg(core_type="banked", faults={"rf_rate": 0.0}))
        assert (gated.cycles, gated.instructions) == \
               (clean.cycles, clean.instructions)


# -- protection schemes -------------------------------------------------------
class TestSchemes:
    def test_parity_detect_only_escapes(self):
        with pytest.raises(FaultEscapeError) as info:
            run_config(_cfg(faults={"rf_rate": 1e-3, "scheme": "parity"}))
        assert info.value.site in SITES
        assert isinstance(info.value, SimulationError)

    def test_ecc_corrects_with_bounded_overhead(self):
        clean = run_config(_cfg())
        r = run_config(_cfg(faults={"rf_rate": 1e-3, "scheme": "ecc"}))
        assert r.correct
        assert _fault_stat(r, "faults_corrected") > 0
        assert _fault_stat(r, "faults_corrected") == \
               _fault_stat(r, "faults_detected")
        assert clean.cycles < r.cycles < clean.cycles * 1.5

    def test_refill_recovers_through_backing_store(self):
        r = run_config(_cfg(faults={"rf_rate": 1e-3, "scheme": "refill"}))
        assert r.correct
        assert _fault_stat(r, "recovery_refills") > 0
        assert _fault_stat(r, "recovery_cycles") > 0

    def test_unprotected_corruption_fails_functional_check(self):
        with pytest.raises(FunctionalCheckError):
            run_config(_cfg(faults={"rf_rate": 1e-3, "scheme": "none"}))

    def test_backing_site_detected_under_spill_pressure(self):
        r = run_config(_cfg(n_threads=8, n_per_thread=16,
                            context_fraction=0.3,
                            faults={"backing_rate": 3e-3, "scheme": "ecc",
                                    "seed": 3}))
        assert r.correct
        assert _fault_stat(r, "faults_injected_backing") > 0
        assert _fault_stat(r, "faults_corrected") > 0

    def test_tag_site_detected(self):
        r = run_config(_cfg(faults={"tag_rate": 1e-3, "scheme": "ecc"}))
        assert r.correct
        assert _fault_stat(r, "faults_injected_tag") > 0


# -- determinism --------------------------------------------------------------
class TestDeterminism:
    def test_same_config_same_outcome(self):
        cfg = _cfg(faults={"rf_rate": 3e-4, "tag_rate": 3e-4,
                           "scheme": "ecc", "seed": 11})
        a, b = run_config(cfg), run_config(cfg)
        assert a.cycles == b.cycles
        for name in ("faults_injected", "faults_detected",
                     "faults_corrected", "recovery_cycles"):
            assert _fault_stat(a, name) == _fault_stat(b, name)

    def test_scheduled_injection_fires_once(self):
        r = run_config(_cfg(faults={"scheduled": [[50, "rf"]],
                                    "scheme": "ecc"}))
        assert r.correct
        assert _fault_stat(r, "faults_injected") == 1
        assert _fault_stat(r, "faults_injected_rf") == 1


# -- direct attachment on a bare core ----------------------------------------
class TestDirectAttach:
    def test_attach_banked_core_and_recover(self):
        core, mem, sym, expected = build_gather_core(BankedCore, n_threads=4,
                                                     n=32)
        inj = FaultInjector.attach(core, FaultConfig(rf_rate=5e-4,
                                                     scheme="ecc", seed=2))
        assert core.fault_hook is inj
        core.run()
        out = [int(v) for v in
               mem.read_array(sym["out"], len(expected))]
        assert out == expected
        assert inj.stats["faults_injected"] > 0

    def test_pending_faults_reported_per_site(self):
        core, *_ = build_gather_core(BankedCore, n_threads=2, n=16)
        inj = FaultInjector.attach(core, FaultConfig(rf_rate=1e-3,
                                                     scheme="ecc"))
        core.run()
        pending = inj.pending_faults()
        assert set(pending) == {"rf", "tag", "backing"}
