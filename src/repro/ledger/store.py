"""The run ledger's single point of SQLite access.

Every reader and writer in the tree goes through :class:`Recorder` (the
append-only write API) or :class:`LedgerReader` (the query API) — lint
rule VRC011 makes a raw ``sqlite3.connect`` outside this package an
error, so the WAL/busy-timeout discipline and the append-only contract
cannot be bypassed by accident.

Concurrency model: connections open in WAL mode with a generous busy
timeout, so many processes may append simultaneously (WAL writers queue;
readers never block writers).  Writers only ever ``INSERT`` — there is no
UPDATE/DELETE path at all — which is what makes the ``--jobs N``
concurrent-sweep guarantee (no lost, no duplicated rows) a property of
SQLite's journal rather than of our locking code.

Host-side provenance (wall-clock timestamps, git sha) is read here and
*only* here lands in ledger rows; none of it ever reaches simulated state
or reproducibility digests (the ``ledger`` tree is on the linter's
wall-clock allowlist for exactly this reason, like telemetry).
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import sqlite3
import subprocess
from datetime import datetime, timezone
from typing import Dict, List, Optional

from .. import __version__
from .schema import DDL, LEDGER_ENV, LEDGER_NAME, ROW_COLUMNS, SCHEMA_VERSION

__all__ = ["LedgerReader", "Recorder", "default_ledger_path",
           "open_recorder"]

_GIT_SHA: Optional[str] = None


def default_ledger_path(root: Optional[str] = None) -> str:
    """The ledger path for a sweep dir (or cwd), honoring ``REPRO_LEDGER``."""
    env = os.environ.get(LEDGER_ENV, "").strip()
    if env:
        return env
    return os.path.join(root, LEDGER_NAME) if root else LEDGER_NAME


def git_sha() -> str:
    """Best-effort short sha of the working tree ('' outside a repo)."""
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5)
            _GIT_SHA = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = ""
    return _GIT_SHA


def utc_now_iso() -> str:
    """ISO-8601 UTC timestamp (provenance only; never enters digests)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _connect(path: str) -> sqlite3.Connection:
    """One WAL-mode, busy-tolerant connection with the schema ensured."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    conn = sqlite3.connect(path, timeout=30.0)
    # WAL lets concurrent sweep parents append without blocking readers;
    # some filesystems (network mounts) refuse it — fall back silently to
    # the default rollback journal, which is still correct, just slower
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    except sqlite3.OperationalError:
        pass
    conn.execute("PRAGMA busy_timeout=30000")
    conn.executescript(DDL)
    conn.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
        ("schema_version", str(SCHEMA_VERSION)))
    conn.commit()
    return conn


def _nonzero_counters(stats) -> Dict[str, float]:
    """The 'selected Stats counters' a row stores: every non-zero flat key.

    Zero counters carry no longitudinal information and would bloat every
    row with the full taxonomy; dropping them keeps ``--compare`` deltas
    meaningful (a counter absent on one side deltas against 0).
    """
    if stats is None or not hasattr(stats, "flat"):
        return {}
    return {k: v for k, v in stats.flat() if v}


def _strip_copy(result):
    """A shallow copy of ``result`` with session handles stripped.

    ``strip_result`` mutates in place; recording must not disturb the
    caller's live telemetry/metrics handles, so the copy takes the hit.
    """
    from ..exec.workers import strip_result
    return strip_result(copy.copy(result))


class Recorder:
    """Append-only write API of the run ledger.

    One instance per writing process; safe to share a file with any
    number of concurrent Recorders (WAL).  Usable as a context manager.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = _connect(path)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- write paths --------------------------------------------------------
    def record_result(self, result, *, source: str = "run",
                      checked: bool = True,
                      wall_s: Optional[float] = None) -> int:
        """Append one completed :class:`RunResult`; returns the row id.

        The stripped result is pickled into ``result_blob`` so a cache
        hit reproduces the run byte-identically (config, cycles,
        instructions, ipc, stats, rf_hit_rate — everything the manifest
        digests); the structured columns alongside exist for history
        queries that must not unpickle anything.
        """
        from ..system.manifest import config_key, config_payload

        cfg = result.config
        host = getattr(result, "host_profile", None) or {}
        stripped = _strip_copy(result)
        return self._insert(
            digest=config_key(cfg),
            source=source,
            checked=1 if checked else 0,
            workload=cfg.workload,
            core_type=cfg.core_type,
            policy=cfg.policy,
            n_threads=cfg.n_threads,
            n_cores=cfg.n_cores,
            context_fraction=cfg.context_fraction,
            seed=cfg.seed,
            config_json=json.dumps(config_payload(cfg), sort_keys=True,
                                   default=str),
            cycles=result.cycles,
            instructions=result.instructions,
            ipc=result.ipc,
            rf_hit_rate=result.rf_hit_rate,
            counters_json=json.dumps(_nonzero_counters(result.stats),
                                     sort_keys=True),
            host_json=json.dumps(host, sort_keys=True) if host else None,
            host_rate=host.get("instr_per_s"),
            wall_s=wall_s if wall_s is not None else host.get("total_s"),
            result_blob=pickle.dumps(stripped, protocol=4),
        )

    def record_row(self, digest: str, *, source: str,
                   workload: Optional[str] = None,
                   core_type: Optional[str] = None,
                   policy: Optional[str] = None,
                   cycles: Optional[int] = None,
                   instructions: Optional[int] = None,
                   counters: Optional[Dict] = None,
                   host_rate: Optional[float] = None,
                   wall_s: Optional[float] = None,
                   config: Optional[Dict] = None) -> int:
        """Append one non-RunResult row (fuzz arm, bench rate, synthetic).

        ``digest`` should be namespaced (``fuzz:...``, ``bench:...``) so
        these rows share the history time axis without ever being
        mistaken for cacheable sweep results (no ``result_blob``).
        """
        return self._insert(
            digest=digest, source=source, checked=0,
            workload=workload, core_type=core_type, policy=policy,
            n_threads=None, n_cores=None, context_fraction=None, seed=None,
            config_json=(json.dumps(config, sort_keys=True, default=str)
                         if config else None),
            cycles=cycles, instructions=instructions, ipc=None,
            rf_hit_rate=None,
            counters_json=json.dumps(counters or {}, sort_keys=True),
            host_json=None, host_rate=host_rate, wall_s=wall_s,
            result_blob=None,
        )

    def _insert(self, **cols) -> int:
        cols.setdefault("schema_version", SCHEMA_VERSION)
        cols.setdefault("repro_version", __version__)
        cols.setdefault("git_sha", git_sha())
        cols.setdefault("created_utc", utc_now_iso())
        names = sorted(cols)
        sql = (f"INSERT INTO runs ({', '.join(names)}) "
               f"VALUES ({', '.join('?' for _ in names)})")
        cur = self._conn.execute(sql, [cols[n] for n in names])
        self._conn.commit()
        return int(cur.lastrowid)


def open_recorder(ledger, backend=None):
    """Resolve a sweep-layer ``ledger=`` argument into ``(recorder, owns)``.

    ``ledger`` may be a path (a Recorder is opened and owned by the
    caller, who must close it) or an existing :class:`Recorder` (borrowed).
    When ``backend`` is a :class:`~repro.ledger.cache.CachedBackend` this
    returns ``(None, False)`` regardless: the cache already records its
    own misses, and recording hits again would duplicate rows.
    """
    if ledger is None:
        return None, False
    from .cache import CachedBackend
    if isinstance(backend, CachedBackend):
        return None, False
    if hasattr(ledger, "record_result"):
        return ledger, False
    return Recorder(os.fspath(ledger)), True


class LedgerReader:
    """Query API of the run ledger (read-only; shares files with writers)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn = _connect(path)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "LedgerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cache lookups ------------------------------------------------------
    def lookup_result(self, digest: str, require_checked: bool = True):
        """The newest cache-servable RunResult for a key, or None.

        Servable means: same digest, the ``default`` engine key, current
        schema version, a stored blob, and (for ``require_checked``) a run
        that passed its functional check.  Unpickles and returns the stored
        :class:`~repro.system.simulator.RunResult`.
        """
        sql = ("SELECT result_blob FROM runs WHERE digest = ? AND "
               "engine_key = 'default' AND schema_version = ? AND "
               "result_blob IS NOT NULL")
        args: List = [digest, SCHEMA_VERSION]
        if require_checked:
            sql += " AND checked = 1"
        sql += " ORDER BY id DESC LIMIT 1"
        row = self._conn.execute(sql, args).fetchone()
        if row is None:
            return None
        try:
            return pickle.loads(row[0])
        except (pickle.PickleError, AttributeError, ImportError,
                EOFError, TypeError):
            # a blob written by an incompatible tree: treat as a miss
            return None

    def has_digest(self, digest: str) -> bool:
        """Any row at all for this digest (used to grade stale vs miss)."""
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE digest = ? LIMIT 1",
            (digest,)).fetchone()
        return row is not None

    # -- history queries ----------------------------------------------------
    def runs(self, digest: Optional[str] = None,
             source: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict]:
        """Rows (oldest first) as plain dicts, blobs excluded."""
        sql = f"SELECT {', '.join(ROW_COLUMNS)} FROM runs"
        where, args = [], []
        if digest is not None:
            where.append("digest = ?")
            args.append(digest)
        if source is not None:
            where.append("source = ?")
            args.append(source)
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        rows = [dict(zip(ROW_COLUMNS, r))
                for r in self._conn.execute(sql, args)]
        rows.reverse()
        return rows

    def digests(self) -> List[Dict]:
        """Per-digest summary: run count, label columns, first/last seen."""
        sql = ("SELECT digest, COUNT(*), MAX(workload), MAX(core_type), "
               "MAX(source), MIN(created_utc), MAX(created_utc) "
               "FROM runs GROUP BY digest ORDER BY MAX(id) DESC")
        return [{"digest": d, "runs": n, "workload": w, "core_type": c,
                 "source": s, "first": first, "last": last}
                for d, n, w, c, s, first, last
                in self._conn.execute(sql)]

    def count(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0])


def counters_of(row: Dict) -> Dict[str, float]:
    """Parse one row's ``counters_json`` (tolerant of absent/garbled)."""
    raw = row.get("counters_json")
    if not raw:
        return {}
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, TypeError):
        return {}
    return data if isinstance(data, dict) else {}
