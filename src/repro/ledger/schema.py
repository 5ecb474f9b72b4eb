"""Ledger schema: the append-only ``runs`` table and its cache key.

One SQLite file holds every completed run this machine has ever recorded
— sweeps, figure drivers, fuzz arms, benchmark rates — one row per run,
never updated, never deleted.  Append-only is the point: the row sequence
*is* the time axis that ``repro inspect`` folds into trajectories, and a
cache hit must be able to trust that the row it read yesterday still says
the same thing today.

Cache-keying rules (enforced by :class:`~repro.ledger.store.LedgerReader`
lookups, documented in docs/observability.md §9):

* ``digest`` — :func:`repro.system.manifest.config_key` of the RunConfig:
  the digest names the *simulated machine*, so it is the primary key of
  "have we computed this before".  Non-RunConfig rows (fuzz arms, bench
  rates) use a namespaced synthetic digest (``fuzz:...``, ``bench:...``)
  so they share the time axis without colliding with sweep rows.
* ``engine_key`` — every row is written as ``default``, and only
  ``default`` rows are served.  The column stays so ledgers written when
  a run could pick its step engine (``compiled`` | ``interpreted`` rows)
  keep reading: those rows grade ``ledger.stale``, never a hit.
* ``schema_version`` — bumping :data:`SCHEMA_VERSION` invalidates every
  prior row for cache purposes (they remain readable history).
* ``checked`` — whether the recorded run passed the functional check; a
  ``check=True`` request is never served from an unchecked row.

Everything host-dependent (rates, wall-clock, git sha, timestamp) rides
*outside* the key columns, mirroring how ``RunManifest`` keeps
``host_profiles`` outside the reproducibility digest.
"""

from __future__ import annotations

#: bump when the row semantics change in a way that must invalidate the
#: result cache (e.g. RunResult gains digest-relevant fields)
SCHEMA_VERSION = 1

#: default ledger filename (created next to the sweep dir or cwd)
LEDGER_NAME = "ledger.sqlite"

#: environment variable overriding the default ledger path
LEDGER_ENV = "REPRO_LEDGER"

#: executed on every connection; IF NOT EXISTS keeps it idempotent under
#: concurrent first-openers (WAL + busy_timeout serialize the DDL)
DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    digest          TEXT    NOT NULL,
    engine_key      TEXT    NOT NULL DEFAULT 'default',
    schema_version  INTEGER NOT NULL,
    source          TEXT    NOT NULL,
    checked         INTEGER NOT NULL DEFAULT 0,
    workload        TEXT,
    core_type       TEXT,
    policy          TEXT,
    n_threads       INTEGER,
    n_cores         INTEGER,
    context_fraction REAL,
    seed            INTEGER,
    config_json     TEXT,
    cycles          INTEGER,
    instructions    INTEGER,
    ipc             REAL,
    rf_hit_rate     REAL,
    counters_json   TEXT,
    host_json       TEXT,
    host_rate       REAL,
    wall_s          REAL,
    result_blob     BLOB,
    repro_version   TEXT,
    git_sha         TEXT,
    created_utc     TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_cache
    ON runs (digest, engine_key, schema_version);
CREATE INDEX IF NOT EXISTS idx_runs_digest ON runs (digest);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
"""

#: columns returned by LedgerReader queries, in stable order
ROW_COLUMNS = (
    "id", "digest", "engine_key", "schema_version", "source", "checked",
    "workload", "core_type", "policy", "n_threads", "n_cores",
    "context_fraction", "seed", "config_json", "cycles", "instructions",
    "ipc", "rf_hit_rate", "counters_json", "host_json", "host_rate",
    "wall_s", "repro_version", "git_sha", "created_utc",
)
