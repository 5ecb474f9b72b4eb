"""Run manifests: everything needed to reproduce a simulation exactly.

A manifest captures the configuration, seeds, package version, and a
digest of the results; saving one next to experiment outputs lets a reader
re-run the exact configuration later and byte-compare.  Used by the CLI's
``--manifest`` option and directly from Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .. import __version__
from .config import RunConfig
from .simulator import RunResult


#: opt-in RunConfig fields added *after* digests were already in the wild:
#: when left at their ``None`` default they are dropped from digest
#: payloads, so config keys and manifest digests recorded before the field
#: existed remain byte-identical (and checkpoint journals stay resumable).
#: A non-None value still enters the digest — two configs differing only
#: in an active campaign remain distinguishable.
_DIGEST_OPTIONAL_FIELDS = ("metrics", "profile", "virec")


def config_payload(cfg: RunConfig) -> Dict:
    """``asdict(cfg)`` normalized for digesting (see above)."""
    payload = dataclasses.asdict(cfg)
    for name in _DIGEST_OPTIONAL_FIELDS:
        if payload.get(name) is None:
            payload.pop(name, None)
    return payload


def config_key(cfg: RunConfig) -> str:
    """Stable 16-hex-digit digest of one RunConfig.

    Used as the row identity of the resilient sweep's checkpoint journal
    (a resumed sweep matches completed rows by this key, so reordering or
    extending the grid between invocations is safe) and available to
    manifest consumers for the same purpose.
    """
    payload = json.dumps(config_payload(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """Reproducibility record of one or more runs."""

    repro_version: str = __version__
    python_version: str = field(default_factory=lambda: sys.version.split()[0])
    platform: str = field(default_factory=platform.platform)
    configs: List[Dict] = field(default_factory=list)
    results_digest: str = ""
    results_summary: List[Dict] = field(default_factory=list)
    #: per-run host-side wall-clock profiles (phase seconds, instr/s).
    #: Machine-dependent by nature, so deliberately *excluded* from the
    #: reproducibility digest — kept to track simulator performance
    #: run-over-run alongside the deterministic results.
    host_profiles: List[Optional[Dict]] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        self.configs.append(config_payload(result.config))
        self.results_summary.append({
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": round(result.ipc, 6),
            "rf_hit_rate": (round(result.rf_hit_rate, 6)
                            if result.rf_hit_rate is not None else None),
        })
        self.host_profiles.append(getattr(result, "host_profile", None))
        self.results_digest = self._digest()

    def _digest(self) -> str:
        payload = json.dumps([self.configs, self.results_summary],
                             sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(asdict(self), indent=indent, default=str)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as f:
            data = json.load(f)
        m = cls(repro_version=data["repro_version"],
                python_version=data["python_version"],
                platform=data["platform"],
                configs=data["configs"],
                results_digest=data["results_digest"],
                results_summary=data["results_summary"],
                host_profiles=data.get("host_profiles", []))
        return m

    def replay_config(self, index: int = 0) -> RunConfig:
        """Reconstruct the RunConfig of entry ``index`` for re-running."""
        return RunConfig(**self.configs[index])

    def verify_against(self, results: List[RunResult]) -> bool:
        """True iff re-run results match the recorded summary exactly."""
        fresh = RunManifest()
        for r in results:
            fresh.add(r)
        return fresh.results_digest == self.results_digest
