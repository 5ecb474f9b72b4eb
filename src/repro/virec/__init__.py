"""ViReC: the paper's contribution — VRMU, LRC policy, BSI, and the core."""

from .bsi import BackingStoreInterface
from .core import ViReCConfig, ViReCCore, make_nsf_core
from .csl import SysRegBuffer
from .oracle import (
    AccessTraceRecorder,
    RegisterTrace,
    ReplayResult,
    policy_quality,
    simulate_trace,
)
from .policies import (
    LRC,
    LRU,
    MRTLRU,
    MRTPLRU,
    PLRU,
    POLICIES,
    ReplacementPolicy,
    make_policy,
)
from .rollback import RollbackEntry, RollbackQueue
from .tagstore import TagStore
from .vrmu import VRMU, CapacityError

__all__ = [
    "AccessTraceRecorder", "BackingStoreInterface", "CapacityError", "LRC",
    "LRU", "MRTLRU", "MRTPLRU", "PLRU", "POLICIES", "RegisterTrace",
    "ReplacementPolicy", "ReplayResult", "RollbackEntry", "RollbackQueue",
    "SysRegBuffer", "TagStore", "VRMU", "ViReCConfig", "ViReCCore",
    "make_nsf_core", "make_policy", "policy_quality", "simulate_trace",
]
