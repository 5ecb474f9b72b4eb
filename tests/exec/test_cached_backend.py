"""CachedBackend: warm replays must be byte-identical to cold computes.

The cache contract on top of the backend determinism contract: a sweep
served from the ledger produces the exact result list (and manifest
digest) of recomputation, under both the serial and the process-pool
inner backends, with every lookup graded hit/miss/stale.
"""

import pytest

from repro.ledger import CachedBackend, LedgerReader, SCHEMA_VERSION
from repro.ledger import store as store_mod
from repro.metrics import MetricsRegistry
from repro.system import run_grid, sweep

from ..helpers import time_limit
from .test_backends import MIXED_GRID, digest_of


def make_cached(path, jobs=None):
    from repro.exec import resolve_backend
    return CachedBackend(path, inner=resolve_backend(jobs=jobs))


@pytest.fixture
def ledger(tmp_path):
    return str(tmp_path / "ledger.sqlite")


def run_warm(ledger, grid=MIXED_GRID, jobs=None, **kw):
    backend = make_cached(ledger, jobs=jobs)
    try:
        results = sweep(grid, backend=backend, **kw)
        return results, dict(backend.counts)
    finally:
        backend.close()


# -- byte-identity ------------------------------------------------------------
def test_warm_sweep_is_byte_identical_serial(ledger):
    with time_limit(300):
        cold = sweep(MIXED_GRID, ledger=ledger)
        warm, counts = run_warm(ledger)
    assert counts == {"hit": len(MIXED_GRID), "miss": 0, "stale": 0}
    assert digest_of(warm) == digest_of(cold)
    assert [r.cycles for r in warm] == [r.cycles for r in cold]
    assert ([r.stats.as_dict() for r in warm]
            == [r.stats.as_dict() for r in cold])


def test_warm_sweep_is_byte_identical_jobs2(ledger):
    """Cold through a pooled cache, warm through another: same digest as
    a plain serial sweep at every step."""
    with time_limit(300):
        serial = sweep(MIXED_GRID)
        cold, cold_counts = run_warm(ledger, jobs=2)
        warm, warm_counts = run_warm(ledger, jobs=2)
    assert cold_counts == {"hit": 0, "miss": len(MIXED_GRID), "stale": 0}
    assert warm_counts == {"hit": len(MIXED_GRID), "miss": 0, "stale": 0}
    assert digest_of(cold) == digest_of(serial)
    assert digest_of(warm) == digest_of(serial)


def test_partial_warm_mixes_hits_and_misses(ledger):
    with time_limit(300):
        sweep(MIXED_GRID[:2], ledger=ledger)
        warm, counts = run_warm(ledger)
    assert counts == {"hit": 2, "miss": 2, "stale": 0}
    assert digest_of(warm) == digest_of(sweep(MIXED_GRID))


def test_grid_and_sweep_folds_share_one_cache(ledger, tmp_path):
    """One worker, one cache key: what ``run_grid`` records through a
    CachedBackend, ``run_many(cache=...)`` replays without simulating, and
    the other way round."""
    from repro.experiments.common import run_many
    from repro.system import RunManifest

    def ledger_rows(path):
        with LedgerReader(path) as reader:
            return reader.count()

    def grid_through_cache(path):
        backend, manifest = CachedBackend(path), RunManifest()
        try:
            rows = run_grid(MIXED_GRID, backend=backend, manifest=manifest)
            return rows, manifest.results_digest, dict(backend.counts)
        finally:
            backend.close()

    all_miss = {"hit": 0, "miss": len(MIXED_GRID), "stale": 0}
    all_hit = {"hit": len(MIXED_GRID), "miss": 0, "stale": 0}
    with time_limit(300):
        # run_grid fills, run_many replays (a hit appends no row)
        rows, digest, counts = grid_through_cache(ledger)
        assert counts == all_miss and ledger_rows(ledger) == len(MIXED_GRID)
        replayed = run_many(MIXED_GRID, cache=ledger)
        assert ledger_rows(ledger) == len(MIXED_GRID)
        assert digest_of(replayed) == digest
        assert [r.cycles for r in replayed] == [r["cycles"] for r in rows]
        # run_many fills, run_grid replays
        other = str(tmp_path / "other.sqlite")
        filled = run_many(MIXED_GRID, cache=other)
        assert ledger_rows(other) == len(MIXED_GRID)
        rows2, digest2, counts2 = grid_through_cache(other)
        assert counts2 == all_hit and ledger_rows(other) == len(MIXED_GRID)
        assert digest2 == digest_of(filled) == digest
        assert rows2 == rows


# -- ledger row accounting ----------------------------------------------------
def test_counters_match_row_counts(ledger):
    with time_limit(300):
        _, cold_counts = run_warm(ledger)          # all misses, recorded
        with LedgerReader(ledger) as reader:
            after_cold = reader.count()
        _, warm_counts = run_warm(ledger)          # all hits, not re-recorded
        with LedgerReader(ledger) as reader:
            after_warm = reader.count()
    assert cold_counts["miss"] == after_cold == len(MIXED_GRID)
    assert warm_counts["hit"] == len(MIXED_GRID)
    assert after_warm == after_cold                # hits append nothing
    with LedgerReader(ledger) as reader:
        assert all(r["source"] == "cache" for r in reader.runs())


def test_metrics_registry_sees_grades(ledger):
    with time_limit(300):
        sweep(MIXED_GRID[:2], ledger=ledger)
        backend = make_cached(ledger)
        try:
            registry = MetricsRegistry()
            run_grid(MIXED_GRID[:3], backend=backend, metrics=registry)
        finally:
            backend.close()
    snap = registry.snapshot()["metrics"]
    assert snap["ledger.hit"]["series"][""] == 2.0
    assert snap["ledger.miss"]["series"][""] == 1.0
    assert "ledger.stale" not in snap


def test_bind_metrics_keeps_explicit_registry(ledger):
    explicit = MetricsRegistry()
    backend = CachedBackend(ledger, metrics=explicit)
    try:
        backend.bind_metrics(MetricsRegistry())
        assert backend.metrics is explicit
    finally:
        backend.close()


# -- staleness ----------------------------------------------------------------
def test_schema_version_bump_grades_stale(ledger, monkeypatch):
    with time_limit(300):
        sweep(MIXED_GRID[:1], ledger=ledger)
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        _, counts = run_warm(ledger, grid=MIXED_GRID[:1])
    assert counts == {"hit": 0, "miss": 0, "stale": 1}


def test_unchecked_rows_stale_for_checked_requests(ledger):
    with time_limit(300):
        sweep(MIXED_GRID[:1], ledger=ledger, check=False)
        _, counts = run_warm(ledger, grid=MIXED_GRID[:1], check=True)
        assert counts == {"hit": 0, "miss": 0, "stale": 1}
        _, counts = run_warm(ledger, grid=MIXED_GRID[:1], check=False)
    assert counts["hit"] == 1


# -- failure handling ---------------------------------------------------------
def test_failures_are_never_cached(ledger):
    bad = MIXED_GRID[1].with_(max_cycles=2)     # trips the cycle watchdog
    with time_limit(300):
        first, counts1 = run_warm(ledger, grid=[MIXED_GRID[0], bad],
                                  on_error="isolate")
        second, counts2 = run_warm(ledger, grid=[MIXED_GRID[0], bad],
                                   on_error="isolate")
    for results, counts in ((first, counts1), (second, counts2)):
        assert results[0] is not None and results[1] is None
        assert [f.index for f in results.failures] == [1]
    assert counts1 == {"hit": 0, "miss": 2, "stale": 0}
    # the good row was cached; the failed row stays a miss forever
    assert counts2 == {"hit": 1, "miss": 1, "stale": 0}


# -- pass-through -------------------------------------------------------------
def test_unknown_fn_passes_through(ledger):
    backend = CachedBackend(ledger)
    try:
        assert backend.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
        assert backend.counts == {"hit": 0, "miss": 0, "stale": 0}
    finally:
        backend.close()


def test_jobs_property_delegates(ledger):
    backend = make_cached(ledger, jobs=3)
    try:
        assert backend.jobs == 3
    finally:
        backend.close()


# -- concurrent parent appends ------------------------------------------------
def test_run_grid_jobs4_ledger_consistent(ledger):
    """``--jobs 4`` with a ledger: every row recorded exactly once and the
    parallel digest matches serial (the acceptance gate)."""
    with time_limit(300):
        serial = run_grid(MIXED_GRID, ledger=ledger)
        with LedgerReader(ledger) as reader:
            assert reader.count() == len(MIXED_GRID)
        parallel = run_grid(MIXED_GRID, jobs=4,
                            ledger=str(ledger) + ".par")
    assert parallel == serial
    with LedgerReader(str(ledger) + ".par") as reader:
        assert reader.count() == len(MIXED_GRID)
        digests = {r["digest"] for r in reader.runs()}
    with LedgerReader(ledger) as reader:
        assert {r["digest"] for r in reader.runs()} == digests
