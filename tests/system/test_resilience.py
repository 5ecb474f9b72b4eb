"""Resilient sweep runner: isolation, watchdogs, retry, checkpoint/resume."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import repro.system.simulator as simulator
from repro.errors import (DeadlockError, FaultEscapeError,
                          FunctionalCheckError, RunFailure, SimulationError,
                          TaskPoolError, TRANSIENT_ERRORS, WatchdogTimeout)
from repro.stats.counters import Stats
from repro.system import (RunConfig, config_key, run_config, run_grid, sweep,
                          sweep_grid)
from repro.system.simulator import RunResult
from repro.system.sweeps import best_by
from repro.system.taskpool import TaskPool, run_taskpool


def _cfg(**kw):
    base = dict(workload="gather", core_type="virec", n_threads=4,
                n_per_thread=8)
    base.update(kw)
    return RunConfig(**base)


def _fake_result(cfg, cycles=100):
    return RunResult(config=cfg, cycles=cycles, instructions=50,
                     ipc=50 / cycles, stats=Stats("fake"))


# -- error taxonomy -----------------------------------------------------------
class TestTaxonomy:
    def test_everything_roots_at_simulation_error(self):
        for cls in (DeadlockError, FunctionalCheckError, FaultEscapeError,
                    WatchdogTimeout, TaskPoolError):
            assert issubclass(cls, SimulationError)

    def test_backward_compatible_bases(self):
        # historical callers caught RuntimeError / AssertionError
        assert issubclass(DeadlockError, RuntimeError)
        assert issubclass(FunctionalCheckError, AssertionError)

    def test_core_reexports_deadlock_error(self):
        from repro.core.base import DeadlockError as CoreDeadlockError
        assert CoreDeadlockError is DeadlockError

    def test_transient_set(self):
        assert DeadlockError in TRANSIENT_ERRORS
        assert FunctionalCheckError not in TRANSIENT_ERRORS

    def test_run_failure_from_exception(self):
        f = RunFailure.from_exception(FaultEscapeError("boom", site="tag"),
                                      index=3, config={"seed": 1})
        assert f.error_type == "FaultEscapeError"
        assert f.transient
        assert f.extra["site"] == "tag"
        assert f.as_dict()["index"] == 3


# -- isolation ----------------------------------------------------------------
class TestIsolation:
    def test_one_deadlocking_config_does_not_abort_grid(self, tmp_path):
        ckpt = str(tmp_path / "grid.jsonl")
        grid = sweep_grid(_cfg(), context_fraction=[0.4, 0.8])
        grid.insert(1, _cfg(max_cycles=10))  # trips the cycle watchdog
        rows = run_grid(grid, checkpoint=ckpt)
        assert len(rows) == 2
        assert len(rows.failures) == 1
        failure = rows.failures[0]
        assert failure.index == 1
        assert failure.error_type == "DeadlockError"
        assert failure.transient
        assert Path(ckpt).exists()

    def test_on_error_raise_preserves_exception_type(self):
        with pytest.raises(DeadlockError):
            run_grid([_cfg(max_cycles=10)], on_error="raise")
        with pytest.raises(ValueError):
            run_grid([], on_error="explode")

    def test_sweep_isolate_keeps_alignment(self):
        configs = [_cfg(), _cfg(max_cycles=10), _cfg(context_fraction=0.4)]
        results = sweep(configs, on_error="isolate")
        assert len(results) == 3
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert len(results.failures) == 1
        assert results.failures[0].index == 1

    def test_sweep_default_still_fail_fast(self):
        with pytest.raises(DeadlockError):
            sweep([_cfg(max_cycles=10)])


# -- watchdogs and retries ----------------------------------------------------
class TestWatchdogsAndRetries:
    def test_wall_clock_watchdog(self, monkeypatch):
        def slow(cfg, check=True):
            time.sleep(5.0)
            return _fake_result(cfg)

        monkeypatch.setattr(simulator, "run_config", slow)
        rows = run_grid([_cfg()], timeout_s=0.05)
        assert len(rows) == 0
        assert rows.failures[0].error_type == "WatchdogTimeout"
        assert rows.failures[0].transient

    def test_transient_retry_perturbs_seed(self, monkeypatch):
        seeds = []

        def flaky(cfg, check=True):
            seeds.append(cfg.seed)
            if len(seeds) == 1:
                raise DeadlockError("first attempt wedges")
            return _fake_result(cfg)

        monkeypatch.setattr(simulator, "run_config", flaky)
        rows = run_grid([_cfg(seed=7)], retries=1)
        assert len(rows) == 1 and not rows.failures
        assert seeds == [7, 7 + 7919]

    def test_functional_failure_not_retried(self, monkeypatch):
        attempts = []

        def wrong(cfg, check=True):
            attempts.append(cfg.seed)
            raise FunctionalCheckError("deterministically wrong")

        monkeypatch.setattr(simulator, "run_config", wrong)
        rows = run_grid([_cfg()], retries=3)
        assert len(attempts) == 1
        assert rows.failures[0].error_type == "FunctionalCheckError"
        assert not rows.failures[0].transient

    def test_retry_exhaustion_records_attempts(self, monkeypatch):
        def wedge(cfg, check=True):
            raise DeadlockError("always wedges")

        monkeypatch.setattr(simulator, "run_config", wedge)
        rows = run_grid([_cfg()], retries=2)
        assert rows.failures[0].attempts == 3


# -- checkpoint / resume ------------------------------------------------------
class TestCheckpointResume:
    def test_resume_reruns_only_failed_rows(self, tmp_path):
        ckpt = str(tmp_path / "grid.jsonl")
        grid = sweep_grid(_cfg(), context_fraction=[0.4, 0.8])
        grid.insert(1, _cfg(max_cycles=10))
        first = run_grid(grid, checkpoint=ckpt)
        assert len(first) == 2 and len(first.failures) == 1

        calls = []
        real = simulator.run_config

        def counting(cfg, check=True):
            calls.append(cfg)
            return real(cfg, check=check)

        try:
            simulator.run_config = counting
            again = run_grid(grid, checkpoint=ckpt, resume=True)
        finally:
            simulator.run_config = real
        # only the deadlocked config was re-simulated
        assert len(calls) == 1
        assert calls[0].max_cycles == 10
        assert again.resumed == 2
        assert len(again) == 2 and len(again.failures) == 1

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            run_grid([_cfg()], resume=True)

    def test_journal_tolerates_torn_tail(self, tmp_path):
        ckpt = tmp_path / "grid.jsonl"
        cfg = _cfg()
        run_grid([cfg], checkpoint=str(ckpt))
        with open(ckpt, "a") as f:
            f.write('{"key": "torn-half-wr')  # crash mid-append
        rows = run_grid([cfg], checkpoint=str(ckpt), resume=True)
        assert len(rows) == 1
        assert rows.resumed == 1

    def test_resumed_rows_match_fresh_rows(self, tmp_path):
        ckpt = str(tmp_path / "grid.jsonl")
        grid = sweep_grid(_cfg(), context_fraction=[0.4, 0.8])
        fresh = run_grid(grid, checkpoint=ckpt)
        resumed = run_grid(grid, checkpoint=ckpt, resume=True)
        assert list(fresh) == list(resumed)

    def test_config_key_stable_and_distinct(self):
        a, b = _cfg(), _cfg(seed=8)
        assert config_key(a) == config_key(_cfg())
        assert config_key(a) != config_key(b)


# -- satellite fixes ----------------------------------------------------------
class TestRowConstruction:
    def test_rows_carry_non_default_fields(self):
        rows = run_grid(sweep_grid(_cfg(), seed=[8, 9]))
        assert [r["seed"] for r in rows] == [8, 9]
        # n_per_thread=8 differs from the RunConfig default, so it must
        # survive into the rows (the old runner dropped it)
        assert all(r["n_per_thread"] == 8 for r in rows)
        # default-valued fields stay implicit
        assert all("dcache_kb" not in r for r in rows)

    def test_best_by_skips_rows_missing_metric(self):
        rows = [{"workload": "gather", "ipc": 0.5, "rf_hit_rate": 0.9},
                {"workload": "gather", "ipc": 0.7}]  # no rf_hit_rate
        best = best_by(rows, metric="rf_hit_rate")
        assert best == [rows[0]]
        assert best_by([], metric="ipc") == []


class TestTaskPool:
    def test_snapshot_tracks_queue_state(self):
        pool = TaskPool()
        assert pool.snapshot() == {"pending": 0, "dispatched": 0,
                                   "completed": 0}

    def test_taskpool_run_accounts_for_every_task(self):
        stats, _ = run_taskpool(hw_threads=4, n_tasks=8, n_per_task=8)
        assert stats["tasks_redispatched"] == 4

    def test_taskpool_error_carries_snapshot(self):
        err = TaskPoolError("pool wedged",
                            snapshot={"pending": 2, "dispatched": 5,
                                      "completed": 3})
        assert err.snapshot["pending"] == 2
        f = RunFailure.from_exception(err, index=0, config={})
        assert f.extra["snapshot"]["dispatched"] == 5


# -- wedge diagnostics (commit_tail / committed payloads) ---------------------
class TestWedgeDiagnostics:
    def test_deadlock_message_carries_progress(self):
        exc = DeadlockError("no runnable thread", commit_tail=123,
                            committed=456)
        assert "[commit_tail=123, committed=456]" in str(exc)
        assert exc.commit_tail == 123 and exc.committed == 456

    def test_bare_construction_still_works(self):
        # the worker pickling fallback reconstructs with message only
        exc = DeadlockError("wedged")
        assert str(exc) == "wedged"
        assert exc.commit_tail == -1 and exc.committed == -1
        again = type(exc)(str(DeadlockError("w", commit_tail=9)))
        assert "[commit_tail=9" in str(again)

    def test_live_cycle_budget_wedge_has_payload(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_config(_cfg(n_per_thread=64, max_cycles=50), check=False)
        exc = excinfo.value
        assert exc.commit_tail >= 0
        assert exc.committed >= 0
        assert "commit_tail=" in str(exc)

    def test_wall_clock_timeout_recovers_wedge_site(self, monkeypatch):
        class _FakeCore:
            commit_tail = 77
            threads = [type("T", (), {"instructions": 5})(),
                       type("T", (), {"instructions": 6})()]

        def slow(cfg, check=True):
            self = _FakeCore()  # noqa: F841  (found via frame walk)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pass
            return _fake_result(cfg)

        monkeypatch.setattr(simulator, "run_config", slow)
        rows = run_grid([_cfg()], timeout_s=0.05)
        failure = rows.failures[0]
        assert failure.error_type == "WatchdogTimeout"
        assert failure.extra["commit_tail"] == 77
        assert failure.extra["committed"] == 11
        assert "commit_tail=77" in failure.message

    def test_run_failure_carries_wedge_extra(self):
        exc = DeadlockError("cycle budget exceeded", commit_tail=40,
                            committed=7)
        f = RunFailure.from_exception(exc, index=0, config={})
        assert f.extra["commit_tail"] == 40
        assert f.extra["committed"] == 7


# -- checkpoint hardening -----------------------------------------------------
class TestCheckpointHardening:
    def test_torn_tail_warns_not_raises(self, tmp_path):
        ckpt = tmp_path / "grid.jsonl"
        cfg = _cfg()
        run_grid([cfg], checkpoint=str(ckpt))
        with open(ckpt, "a") as f:
            f.write('{"key": "torn-half-wr')
        with pytest.warns(RuntimeWarning, match="torn or malformed"):
            rows = run_grid([cfg], checkpoint=str(ckpt), resume=True)
        assert rows.resumed == 1

    def test_non_object_lines_skipped_with_warning(self, tmp_path):
        ckpt = tmp_path / "grid.jsonl"
        cfg = _cfg()
        run_grid([cfg], checkpoint=str(ckpt))
        with open(ckpt, "a") as f:
            f.write('[1, 2, 3]\n"just a string"\n')
        with pytest.warns(RuntimeWarning):
            rows = run_grid([cfg], checkpoint=str(ckpt), resume=True)
        assert rows.resumed == 1

    def test_ok_record_without_row_reruns(self, tmp_path):
        import json as _json
        import warnings

        from repro.ledger import CachedBackend

        ckpt = tmp_path / "grid.jsonl"
        grid = [_cfg(), _cfg(context_fraction=0.8)]
        cached = CachedBackend(str(tmp_path / "ledger.sqlite"))
        # the config is classified once, whichever backend then runs it:
        # one warning on the serial, pooled and cached paths alike
        for kwargs in ({}, {"jobs": 2}, {"backend": cached}):
            # an "ok" record whose payload never made it to disk
            with open(ckpt, "w") as f:
                f.write(_json.dumps({"key": config_key(grid[0]),
                                     "status": "ok"}) + "\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = run_grid(grid, checkpoint=str(ckpt), resume=True,
                                **kwargs)
            assert [str(w.message) for w in caught] == [
                f"checkpoint record for {config_key(grid[0])} has no row; "
                f"re-running"], kwargs
            assert rows.resumed == 0
            assert len(rows) == 2
        cached.close()
