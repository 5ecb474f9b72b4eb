"""System-level assembly: Table 1 configs, multi-core nodes, offload, driver."""

from .config import (
    CORE_TYPES,
    OOO_AREA_RATIO_VS_INO,
    OOO_CLOCK_RATIO,
    RunConfig,
    ndp_dcache,
    ndp_icache,
    table1_dram,
)
from ..errors import RunFailure
from .node import AddressSkew, NearMemoryNode, NodeResult
from .offload import offload_contexts
from .manifest import RunManifest, config_key
from .simulator import ResultList, RunResult, run_config, sweep
from .sweeps import GridRows, best_by, run_grid, sweep_grid

__all__ = [
    "AddressSkew", "CORE_TYPES", "GridRows", "NearMemoryNode", "NodeResult",
    "OOO_AREA_RATIO_VS_INO", "OOO_CLOCK_RATIO", "ResultList", "RunConfig",
    "RunFailure", "RunManifest", "RunResult", "best_by",
    "config_key", "ndp_dcache", "ndp_icache", "offload_contexts",
    "run_config", "run_grid", "sweep", "sweep_grid", "table1_dram",
]
