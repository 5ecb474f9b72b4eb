"""Table 1 configuration presets must match the paper exactly."""

import pytest

from repro.memory import DRAMConfig
from repro.system.config import (
    OOO_AREA_RATIO_VS_INO,
    OOO_CLOCK_RATIO,
    RunConfig,
    ndp_dcache,
    ndp_icache,
    table1_dram,
)


def test_ndp_dcache_matches_table1():
    """8kB 4-way D-cache, 2-cycle access, 24 MSHRs."""
    cfg = ndp_dcache()
    assert cfg.size_bytes == 8 * 1024
    assert cfg.assoc == 4
    assert cfg.latency == 2
    assert cfg.mshrs == 24
    assert cfg.line_bytes == 64


def test_ndp_icache_matches_table1():
    """32kB 4-way I-cache, 2-cycle access."""
    cfg = ndp_icache()
    assert cfg.size_bytes == 32 * 1024
    assert cfg.assoc == 4
    assert cfg.latency == 2


def test_dram_matches_table1():
    """DDR5_6400: 1 rank, 2 channels, tRP-tCL-tRCD 14-14-14."""
    cfg = table1_dram()
    assert cfg.channels == 2
    assert cfg.t_rp == cfg.t_cl == cfg.t_rcd == 14


@pytest.mark.parametrize("build, field", [
    (lambda: RunConfig(n_cores=0), "n_cores"),
    (lambda: RunConfig(n_threads=0), "n_threads"),
    (lambda: RunConfig(n_per_thread=-1), "n_per_thread"),
    (lambda: RunConfig(dram_channels=0), "dram_channels"),
    (lambda: RunConfig(dram_banks=-1), "dram_banks"),
    (lambda: RunConfig(core_type="ooo", n_cores=2), "n_cores"),
    (lambda: DRAMConfig(channels=0), "channels"),
    (lambda: DRAMConfig(banks_per_channel=0), "banks_per_channel"),
    (lambda: DRAMConfig(row_bytes=0), "row_bytes"),
    (lambda: DRAMConfig(row_bytes=100), "row_bytes"),
    (lambda: DRAMConfig(t_cl=-1), "t_cl"),
    (lambda: DRAMConfig(t_controller=-2), "t_controller"),
], ids=["n_cores", "n_threads", "n_per_thread", "dram_channels",
        "dram_banks", "ooo-n_cores", "channels",
        "banks", "row_bytes-0", "row_bytes-100", "t_cl", "t_controller"])
def test_impossible_sizes_are_rejected_when_the_config_is_built(build, field):
    """Each used to fail deep in the run (``max()`` of no cores, a
    ``ZeroDivisionError`` in ``DRAM.access``, a run of no instructions),
    or, for an ``ooo`` node, silently ran one host core."""
    with pytest.raises(ValueError, match=f"^{field} must be") as excinfo:
        build()
    assert "\n" not in str(excinfo.value)


def test_ooo_constants_match_paper():
    """2 GHz OoO vs 1 GHz NDP; 19.1x area [43]."""
    assert OOO_CLOCK_RATIO == 2.0
    assert OOO_AREA_RATIO_VS_INO == 19.1


def test_ooo_core_parameters_match_table1():
    from repro.core.ooo import OoOConfig
    cfg = OoOConfig()
    assert cfg.width == 8
    assert cfg.rob_entries == 224
    assert cfg.lq_entries == 113
    assert cfg.sq_entries == 120
    assert cfg.alu_units == 4 and cfg.fp_units == 2 and cfg.ld_units == 2


def test_inorder_core_parameters_match_table1():
    from repro.core.base import CoreConfig
    from repro.core.inorder import InOrderCore
    cfg = CoreConfig()
    assert cfg.sq_entries == 5          # 5 SQ entries
    # CGMT cores: 1 outstanding load; base InO: 2 (checked on the class)
    assert cfg.max_outstanding_loads == 1


def test_virec_register_range_covers_paper_sweep():
    """Paper sweeps 24-120 registers for ViReC; resolve_rf_size must
    produce values in that range for the evaluated configurations."""
    for threads in (4, 6, 8):
        for frac in (0.4, 0.6, 0.8, 1.0):
            cfg = RunConfig(core_type="virec", n_threads=threads,
                            context_fraction=frac)
            rf = cfg.resolve_rf_size(active_context=8)
            assert 8 <= rf <= 120


def test_banked_bank_geometry():
    """Banked core: 8 banks of 32/32 int/FP registers (= 64 per bank)."""
    from repro.area.cores import banked_core_area
    # the area model's default regs_per_bank is 64 (32 int + 32 fp)
    import inspect
    sig = inspect.signature(banked_core_area)
    assert sig.parameters["regs_per_bank"].default == 64


@pytest.mark.parametrize("virec, message", [
    ({"pinnning": False}, "unknown virec field 'pinnning'"),
    ({"rf_size": 16}, "virec['rf_size']: set RunConfig.rf_size instead"),
    ({"policy": "plru"}, "virec['policy']: set RunConfig.policy instead"),
    # the 5-stage pipeline's backend occupancy, a constant of the model
    ({"rollback_depth": 4}, "unknown virec field 'rollback_depth'"),
], ids=["unknown", "rf_size", "policy", "rollback_depth"])
def test_bad_virec_key_is_rejected_when_the_config_is_built(virec, message):
    """``rf_size`` and ``policy`` have RunConfig fields: one route each."""
    with pytest.raises(ValueError) as excinfo:
        RunConfig(virec=virec)
    assert str(excinfo.value).startswith(message)
    assert "\n" not in str(excinfo.value)


def test_virec_none_keeps_digests_stable():
    from repro.system.manifest import config_key, config_payload
    cfg = RunConfig()
    assert "virec" not in config_payload(cfg)
    assert config_key(cfg) != config_key(cfg.with_(virec={"pinning": False}))
