"""Run ledger: the persistent, digest-keyed record of every completed run.

Three layers, one SQLite file (see docs/observability.md §9):

* :mod:`~repro.ledger.store` — :class:`Recorder` (append-only writes from
  ``run_grid``/``sweep``/fuzz) and :class:`LedgerReader` (queries).
* :mod:`~repro.ledger.cache` — :class:`CachedBackend`, serving digest-keyed
  hits with recomputation-byte-identical results over any exec backend.
* :mod:`~repro.ledger.history` — trajectories, per-counter compares, and
  the median-of-last-N ``repro history --check`` regression gate.

All SQLite access in the tree lives inside this package (lint rule
VRC011); everything else goes through the two classes above.
"""

from .cache import CachedBackend
from .history import check_history, compare_digests, history_series, trajectory
from .schema import LEDGER_ENV, LEDGER_NAME, SCHEMA_VERSION
from .store import LedgerReader, Recorder, default_ledger_path

__all__ = [
    "CachedBackend",
    "LEDGER_ENV",
    "LEDGER_NAME",
    "LedgerReader",
    "Recorder",
    "SCHEMA_VERSION",
    "check_history",
    "compare_digests",
    "default_ledger_path",
    "history_series",
    "trajectory",
]
