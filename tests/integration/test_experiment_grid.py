"""``repro experiments`` runs the figures' grids as one union,
deduplicated by config key: every distinct config is simulated once."""

from repro.experiments import DRIVERS, fig13
from repro.system import simulator
from repro.system.manifest import config_key

GRID_DRIVERS = ("ablation", "compiler_study", "fault_study", "fig01", "fig09",
                "fig10", "fig11", "fig12", "fig13", "sizing")


def test_grid_drivers_are_the_ten():
    assert sorted(n for n, d in DRIVERS.items()
                  if hasattr(d, "grid")) == list(GRID_DRIVERS)


def test_union_sizes_at_tiny():
    """Figures 1 and 9-12 and the fault study share their baselines,
    Figure 13's 2-cycle latency point is its 8 kB capacity point, the
    ablation's full design is Figure 9's 8-thread virec60 and the compiler
    study's gather baseline is Figure 9's 8-thread banked gather."""
    grids = [DRIVERS[name].grid("tiny") for name in GRID_DRIVERS]
    configs = [cfg for grid in grids for cfg in grid]
    assert len(configs) == 878
    assert len({config_key(cfg) for cfg in configs}) == 805
    fig13_grid = fig13.grid("tiny")
    assert len(fig13_grid) == 200
    assert len({config_key(cfg) for cfg in fig13_grid}) == 180


def test_each_distinct_config_simulates_once(monkeypatch):
    calls = []
    run_config = simulator.run_config

    def counted(cfg, *args, **kwargs):
        calls.append(config_key(cfg))
        return run_config(cfg, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_config", counted)
    axes = dict(workloads=("vecadd",), latencies=(2, 8), capacities_kb=(8, 16))
    grid = fig13.grid("tiny", **axes)
    keys = [config_key(cfg) for cfg in grid]
    assert len(keys) == 8 and len(set(keys)) == 6
    result = fig13.run("tiny", **axes)
    assert sorted(calls) == sorted(set(keys))
    # the shared cell folds into both sweeps
    rows = {(row["sweep"], row["value"]): row for row in result.rows}
    for column in ("virec_ipc", "banked_ipc"):
        assert rows["latency", 2][column] == rows["capacity_kb", 8][column]


def _failing(monkeypatch, fails, error):
    """Make ``simulator.run_config`` raise ``error`` where ``fails(cfg)``."""
    run_config = simulator.run_config

    def run(cfg, *args, **kwargs):
        if fails(cfg):
            raise error
        return run_config(cfg, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_config", run)


def test_failed_config_is_one_error_line_and_exit_3(monkeypatch, capsys):
    from repro.cli import main
    from repro.errors import DeadlockError

    _failing(monkeypatch, lambda cfg: cfg.n_threads == 4,
             DeadlockError("no thread can issue"))
    assert main(["experiments", "fig14", "fig10", "--scale", "tiny"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: fig10: DeadlockError: no thread can issue"]


def test_fault_study_counts_failed_injected_runs_as_escapes(monkeypatch):
    """A rate-0 run injects nothing and never escapes on its own."""
    from repro.errors import FaultEscapeError
    from repro.experiments import fault_study

    _failing(monkeypatch, lambda cfg: bool(cfg.faults)
             and cfg.faults["rf_rate"] == 0 and cfg.seed == 7,
             FaultEscapeError("uncorrectable flip"))
    zero = [row for row in fault_study.run("tiny").rows if row["rate"] == "0"]
    assert len(zero) == len(fault_study.CELLS) * len(fault_study.SCHEMES)
    for row in zero:
        assert row["escapes"] == 1 and row["overhead"] == 0.0
