"""The run ledger store: schema, Recorder/LedgerReader, cache servability.

Real (tiny) simulation results exercise the round-trip so the pickled
blob path is tested against the actual RunResult shape; everything
longitudinal runs on cheap synthetic ``record_row`` entries.
"""

import json
import threading

import pytest

from repro.ledger import (LEDGER_ENV, LedgerReader, Recorder, SCHEMA_VERSION,
                          default_ledger_path)
from repro.ledger import store as store_mod
from repro.ledger.store import counters_of, open_recorder
from repro.system import RunConfig, RunManifest, run_config
from repro.system.manifest import config_key

CFG = RunConfig(workload="gather", core_type="banked", n_threads=2,
                n_per_thread=4)


@pytest.fixture(scope="module")
def result():
    return run_config(CFG)


def digest_of(*results):
    m = RunManifest()
    for r in results:
        m.add(r)
    return m.results_digest


# -- paths and keys -----------------------------------------------------------
def test_default_ledger_path(monkeypatch, tmp_path):
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    assert default_ledger_path() == "ledger.sqlite"
    assert default_ledger_path(str(tmp_path)) == str(tmp_path / "ledger.sqlite")
    monkeypatch.setenv(LEDGER_ENV, "/elsewhere/runs.db")
    assert default_ledger_path(str(tmp_path)) == "/elsewhere/runs.db"


# -- record_result round-trip -------------------------------------------------
def test_record_result_row_columns(tmp_path, result):
    path = str(tmp_path / "ledger.sqlite")
    with Recorder(path) as rec:
        rec.record_result(result, source="sweep")
    with LedgerReader(path) as reader:
        assert reader.count() == 1
        (row,) = reader.runs()
    assert row["digest"] == config_key(CFG)
    assert row["engine_key"] == "default"
    assert row["schema_version"] == SCHEMA_VERSION
    assert row["source"] == "sweep" and row["checked"] == 1
    assert row["workload"] == "gather" and row["core_type"] == "banked"
    assert row["cycles"] == result.cycles
    assert row["instructions"] == result.instructions
    assert json.loads(row["config_json"])["workload"] == "gather"
    counters = counters_of(row)
    assert counters and all(v for v in counters.values())


def test_lookup_result_round_trips_byte_identically(tmp_path, result):
    path = str(tmp_path / "ledger.sqlite")
    with Recorder(path) as rec:
        rec.record_result(result)
    with LedgerReader(path) as reader:
        cached = reader.lookup_result(config_key(CFG))
    assert cached is not None
    assert digest_of(cached) == digest_of(result)
    assert cached.stats.as_dict() == result.stats.as_dict()


def test_recording_does_not_disturb_the_caller(tmp_path):
    """record_result strips a *copy*: the live result keeps its handles."""
    r = run_config(CFG.with_(telemetry={"events": True, "interval": 50}))
    assert r.telemetry is not None
    with Recorder(str(tmp_path / "l.sqlite")) as rec:
        rec.record_result(r)
    assert r.telemetry is not None


# -- servability grading ------------------------------------------------------
def test_lookup_misses_on_unknown_digest(tmp_path):
    with LedgerReader(str(tmp_path / "l.sqlite")) as reader:
        assert reader.lookup_result("0" * 16) is None
        assert not reader.has_digest("0" * 16)


def test_schema_version_bump_invalidates(tmp_path, result, monkeypatch):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        rec.record_result(result)
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    with LedgerReader(path) as reader:
        assert reader.lookup_result(config_key(CFG)) is None
        assert reader.has_digest(config_key(CFG))


def test_unchecked_rows_not_served_to_checked_requests(tmp_path, result):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        rec.record_result(result, checked=False)
    with LedgerReader(path) as reader:
        assert reader.lookup_result(config_key(CFG)) is None
        assert reader.lookup_result(config_key(CFG),
                                    require_checked=False) is not None


def test_garbled_blob_treated_as_miss(tmp_path, result):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        rec.record_result(result)
        rec._conn.execute("UPDATE runs SET result_blob = ?", (b"garbage",))
        rec._conn.commit()
    with LedgerReader(path) as reader:
        assert reader.lookup_result(config_key(CFG)) is None


# -- record_row (fuzz/bench/synthetic) ---------------------------------------
def test_record_row_never_cache_servable(tmp_path):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        rec.record_row("bench:virec", source="bench", core_type="virec",
                       host_rate=12345.0, wall_s=0.5,
                       counters={"instr_per_s": 12345.0})
    with LedgerReader(path) as reader:
        assert reader.has_digest("bench:virec")
        assert reader.lookup_result("bench:virec") is None
        assert reader.lookup_result("bench:virec",
                                    require_checked=False) is None
        (row,) = reader.runs(digest="bench:virec")
    assert row["checked"] == 0 and row["source"] == "bench"
    assert row["host_rate"] == 12345.0


def test_rows_carry_provenance(tmp_path):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        rec.record_row("bench:x", source="bench")
    with LedgerReader(path) as reader:
        (row,) = reader.runs()
    assert row["created_utc"] and "T" in row["created_utc"]
    assert row["repro_version"]
    assert row["git_sha"] is not None  # '' outside a repo is fine


# -- queries ------------------------------------------------------------------
def test_runs_filters_and_order(tmp_path):
    path = str(tmp_path / "l.sqlite")
    with Recorder(path) as rec:
        for i in range(5):
            rec.record_row("synt:a", source="bench", cycles=100 + i)
        rec.record_row("synt:b", source="fuzz", cycles=7)
    with LedgerReader(path) as reader:
        rows = reader.runs(digest="synt:a")
        assert [r["cycles"] for r in rows] == [100, 101, 102, 103, 104]
        assert [r["cycles"] for r in reader.runs(digest="synt:a", limit=2)] \
            == [103, 104]  # newest two, still oldest-first
        assert len(reader.runs(source="fuzz")) == 1
        summaries = reader.digests()
    assert [s["digest"] for s in summaries] == ["synt:b", "synt:a"]
    assert summaries[1]["runs"] == 5


def test_counters_of_tolerates_garbage():
    assert counters_of({"counters_json": None}) == {}
    assert counters_of({"counters_json": "not json"}) == {}
    assert counters_of({"counters_json": "[1, 2]"}) == {}
    assert counters_of({"counters_json": '{"a": 1}'}) == {"a": 1}


# -- open_recorder resolution -------------------------------------------------
def test_open_recorder_resolution(tmp_path):
    assert open_recorder(None) == (None, False)
    path = str(tmp_path / "l.sqlite")
    rec, owns = open_recorder(path)
    assert owns and isinstance(rec, Recorder)
    rec.close()
    with Recorder(path) as existing:
        borrowed, owns = open_recorder(existing)
        assert borrowed is existing and not owns


def test_open_recorder_defers_to_cached_backend(tmp_path):
    from repro.ledger import CachedBackend
    path = str(tmp_path / "l.sqlite")
    backend = CachedBackend(path)
    try:
        assert open_recorder(path, backend) == (None, False)
    finally:
        backend.close()


# -- concurrency --------------------------------------------------------------
def test_concurrent_recorders_lose_no_rows(tmp_path):
    """WAL + append-only: many writers, no lost and no duplicated rows."""
    path = str(tmp_path / "l.sqlite")
    n_writers, n_rows = 4, 25
    errors = []

    def writer(k):
        try:
            with Recorder(path) as rec:
                for i in range(n_rows):
                    rec.record_row(f"synt:{k}", source="bench",
                                   cycles=k * 1000 + i)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(k,))
               for k in range(n_writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    with LedgerReader(path) as reader:
        assert reader.count() == n_writers * n_rows
        for k in range(n_writers):
            cycles = [r["cycles"] for r in reader.runs(digest=f"synt:{k}")]
            assert sorted(cycles) == [k * 1000 + i for i in range(n_rows)]
