"""Near-memory workload suite (Spatter, meabo, CORAL-2, PrIM kernels)."""

from . import dbms, fuzzgen, graph, meabo, pointer_chase, sparse, spatter, stencil, stream, synthetic  # noqa: F401 (registration)
from .registry import (
    BuildMemo,
    WorkloadInstance,
    WorkloadSpec,
    all_workloads,
    build,
    build_key,
    get,
    names,
)

__all__ = ["BuildMemo", "WorkloadInstance", "WorkloadSpec", "all_workloads",
           "build", "build_key", "get", "names"]
