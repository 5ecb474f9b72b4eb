"""Cycle-level memory hierarchy: caches, DRAM, prefetcher, crossbar."""

from .cache import Cache, CacheBusy, CacheConfig, CacheLine
from .crossbar import Crossbar
from .dram import DRAM, DRAMConfig, hbm_like_config
from .hierarchy import CoreMemPorts, HostMemorySystem, NDPMemorySystem
from .main_memory import LINE_BYTES, MainMemory, WORD_BYTES, line_address
from .prefetcher import StridePrefetcher

__all__ = [
    "Cache", "CacheBusy", "CacheConfig", "CacheLine", "CoreMemPorts",
    "Crossbar", "DRAM", "DRAMConfig", "HostMemorySystem", "LINE_BYTES",
    "MainMemory", "NDPMemorySystem", "StridePrefetcher", "WORD_BYTES",
    "hbm_like_config", "line_address",
]
