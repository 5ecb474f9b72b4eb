"""Tests for RunConfig, the simulation driver, and multi-core nodes."""

import pytest

from repro.system import RunConfig, run_config, sweep


def small(**kw):
    base = dict(workload="gather", core_type="virec", n_threads=4,
                n_per_thread=12)
    base.update(kw)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(core_type="quantum")
    with pytest.raises(ValueError):
        RunConfig(context_fraction=0.01)


def test_resolve_rf_size():
    cfg = small(context_fraction=0.5, n_threads=8)
    assert cfg.resolve_rf_size(10) == 40
    assert cfg.with_(rf_size=13).resolve_rf_size(10) == 13


@pytest.mark.parametrize("core_type", ["banked", "virec", "nsf", "swctx",
                                       "prefetch-full", "prefetch-exact"])
def test_driver_runs_each_core_type(core_type):
    r = run_config(small(core_type=core_type))
    assert r.correct and r.cycles > 0 and r.instructions > 0
    assert 0 < r.ipc <= 1.0


def test_driver_runs_inorder():
    r = run_config(small(core_type="inorder", n_threads=1))
    assert r.correct and r.ipc > 0


def test_driver_runs_ooo():
    r = run_config(small(core_type="ooo", n_threads=1, n_per_thread=64))
    assert r.correct and r.ipc > 0


def test_ooo_honours_the_cycle_watchdog():
    from repro.errors import DeadlockError

    cfg = small(core_type="ooo", n_threads=1, n_per_thread=64)
    free = run_config(cfg)
    # budget not hit: the same run (max_cycles is in NDP cycles, as for
    # every other core type; the host clock runs at twice that)
    assert (run_config(cfg.with_(max_cycles=free.cycles + 1)).cycles
            == free.cycles)
    with pytest.raises(DeadlockError, match="cycle budget exceeded") as err:
        run_config(cfg.with_(max_cycles=10))
    assert err.value.commit_tail > 20 and err.value.committed >= 0


def test_virec_reports_hit_rate():
    r = run_config(small(core_type="virec", context_fraction=0.6))
    assert r.rf_hit_rate is not None and 0.2 < r.rf_hit_rate <= 1.0
    rb = run_config(small(core_type="banked"))
    assert rb.rf_hit_rate is None


def test_multicore_node_contention():
    """Figure 11 mechanism: more active processors -> slower per-core."""
    one = run_config(small(core_type="virec", n_cores=1, n_per_thread=24))
    four = run_config(small(core_type="virec", n_cores=4, n_per_thread=24))
    # per-core work equal; shared memory contention must not speed things up
    assert four.cycles >= one.cycles
    assert four.instructions == pytest.approx(4 * one.instructions, rel=0.01)


def test_sweep_returns_in_order():
    cfgs = [small(context_fraction=f) for f in (1.0, 0.6)]
    results = sweep(cfgs)
    assert [r.config.context_fraction for r in results] == [1.0, 0.6]


def test_offload_stagger_delays_start():
    fast = run_config(small(offload_stagger=0))
    slow = run_config(small(offload_stagger=500))
    assert slow.cycles > fast.cycles


def test_determinism():
    a = run_config(small(seed=9))
    b = run_config(small(seed=9))
    assert a.cycles == b.cycles and a.instructions == b.instructions
