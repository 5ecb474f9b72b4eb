"""Table 1 configuration presets and the experiment configuration schema.

Every performance experiment in :mod:`repro.experiments` is described by a
:class:`RunConfig` and executed by :func:`repro.system.simulator.run_config`,
so benchmark drivers never hand-assemble cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from ..memory.cache import CacheConfig
from ..memory.dram import DRAMConfig
from ..subsystems import requested

CORE_TYPES = ("inorder", "banked", "swctx", "virec", "nsf",
              "prefetch-full", "prefetch-exact", "ooo", "fgmt")


def ndp_dcache(size_kb: int = 8, latency: int = 2) -> CacheConfig:
    """NDP dcache per Table 1: 8 kB 4-way, 2-cycle, 1R/1W, 24 MSHRs."""
    return CacheConfig(name="dcache", size_bytes=size_kb * 1024, assoc=4,
                       latency=latency, mshrs=24)


def ndp_icache() -> CacheConfig:
    """NDP icache per Table 1: 32 kB 4-way, 2-cycle."""
    return CacheConfig(name="icache", size_bytes=32 * 1024, assoc=4,
                       latency=2, mshrs=4)


def table1_dram() -> DRAMConfig:
    """DDR5_6400, 1 rank, 2 channels, tRP-tCL-tRCD 14-14-14 (cycles @ 1 GHz)."""
    return DRAMConfig(channels=2, banks_per_channel=16,
                      t_rp=14, t_rcd=14, t_cl=14, t_burst=2)


#: clock ratio of the OoO host (2 GHz) to the NDP cores (1 GHz); experiment
#: drivers divide the OoO's cycle counts by this when comparing performance.
OOO_CLOCK_RATIO = 2.0

#: area-model reference points used across Figures 1 and 14 (Section 6.2)
OOO_AREA_RATIO_VS_INO = 19.1


@dataclass
class RunConfig:
    """One simulation run: workload x core type x parameters."""

    workload: str = "gather"
    core_type: str = "virec"
    n_threads: int = 8
    n_cores: int = 1
    #: elements (or rows) each thread processes
    n_per_thread: int = 64
    #: ViReC register-cache capacity as a fraction of the workloads' total
    #: active context (the 40%-100% sweep of Section 6.1); ignored by other
    #: core types.  ``rf_size`` overrides it when set.
    context_fraction: float = 1.0
    rf_size: Optional[int] = None
    policy: str = "lrc"
    dcache_kb: int = 8
    dcache_latency: int = 2
    crossbar_latency: int = 6
    dram_channels: int = 2
    dram_banks: int = 16
    #: "ddr5" (Table 1) or "hbm" (stacked-memory preset); "hbm" overrides
    #: the channel/bank fields above
    dram_preset: str = "ddr5"
    seed: int = 7
    workload_kwargs: Dict = field(default_factory=dict)
    #: per-thread offload stagger in cycles (task dispatch serialization)
    offload_stagger: int = 20
    #: optional fault-injection campaign: a mapping of
    #: :class:`~repro.faults.FaultConfig` fields (or an instance).  None
    #: (the default) wires nothing — runs are bit-identical to a build
    #: without the fault subsystem.
    faults: Optional[Dict] = None
    #: per-run cycle-budget watchdog: abort with DeadlockError once any
    #: core's local clock exceeds this (None = unlimited)
    max_cycles: Optional[int] = None
    #: The three fields of the observe layer: any of them set wires one
    #: :class:`~repro.telemetry.TelemetrySession`, each for its part of
    #: the run's artifact set (see :mod:`repro.telemetry.config` for the
    #: knobs).  All three None (the default) wires nothing — runs are
    #: bit-identical to a build without the telemetry package.
    #: ``telemetry``: a mapping of ``events``, ``interval``,
    #: ``pipeline_trace``, ``pipeline_trace_limit``, ``max_events`` and
    #: ``verbose_hits`` — the event ring, register-cache record, interval
    #: rows and pipeline tracer.
    telemetry: Optional[Dict] = None
    #: ``metrics``: ``True`` or ``{"by_kind": ...}`` — per-run metric
    #: cells and summary gauges.  Excluded from config/manifest digests
    #: when None so pre-existing digests and checkpoint-journal keys stay
    #: valid.
    metrics: Optional[Dict] = None
    #: ``profile``: ``True`` (or ``{}``) — the top-down cycle attribution.
    #: Excluded from digests when None, as ``metrics``.
    profile: Optional[Dict] = None
    #: optional VSan sanitizer mode: a mapping of
    #: :class:`~repro.sanitizer.SanitizeConfig` fields (or an instance, or
    #: ``True`` for the default per-commit checks).  None (the default)
    #: wires nothing — runs are bit-identical to a build without the
    #: sanitizer subsystem; a sanitize-on run that finds no violation is
    #: still cycle-identical to a sanitize-off run.
    sanitize: Optional[Dict] = None
    #: ``virec``: a mapping of :class:`~repro.virec.ViReCConfig` field
    #: overrides (``blocking_bsi``, ``pinning``, ``group_evict``, ...) for
    #: a ``virec`` core; ``rf_size`` and ``policy`` have their own fields
    #: above.  Excluded from digests when None, as ``metrics``.
    virec: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.core_type not in CORE_TYPES:
            raise ValueError(f"unknown core type {self.core_type!r}")
        for name in ("n_cores", "n_threads", "n_per_thread", "dram_channels",
                     "dram_banks"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.core_type == "ooo" and self.n_cores != 1:
            # the host core runs the whole problem alone
            raise ValueError(f"n_cores must be 1 for core_type 'ooo', "
                             f"got {self.n_cores}")
        if not 0.1 <= self.context_fraction <= 2.0:
            raise ValueError("context_fraction out of range")
        if self.dram_preset not in ("ddr5", "hbm"):
            raise ValueError(f"unknown dram preset {self.dram_preset!r}")
        from ..virec.policies import POLICIES
        if self.policy not in POLICIES:  # validate eagerly
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"choose from {sorted(POLICIES)}")
        if self.max_cycles is not None and self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if self.virec is not None:
            _check_virec(self.virec)
        requested(self)  # validate the opt-in layers' specs eagerly

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def resolve_rf_size(self, active_context: int) -> int:
        """Physical register-cache entries for this run."""
        if self.rf_size is not None:
            return self.rf_size
        return max(8, round(self.context_fraction * self.n_threads * active_context))


def _check_virec(overrides: Dict) -> None:
    """Reject a ``virec`` key that is not a settable ViReCConfig field."""
    from ..virec import ViReCConfig
    own = ("rf_size", "policy")     # RunConfig fields of their own
    allowed = [f.name for f in fields(ViReCConfig) if f.name not in own]
    for key in overrides:
        if key in own:
            raise ValueError(f"virec[{key!r}]: set RunConfig.{key} instead")
        if key not in allowed:
            raise ValueError(f"unknown virec field {key!r}; "
                             f"choose from {allowed}")
