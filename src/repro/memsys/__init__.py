"""Texture memory hierarchy: L1 texture caches, the shared LLC and DRAM.

The paper identifies texture fetching as the dominant memory-bandwidth
consumer of 3D rendering (Fig. 6) and evaluates PATU's interaction with
cache capacity (Fig. 21). This subpackage provides the texture cache
hierarchy (exact LRU, simulated in bulk by stack distance), the
dict-LRU ``CacheSim`` it is checked against, a channel/bank DRAM
bandwidth-latency model, and the frame-level bandwidth breakdown
accounting.
"""

from .cache import CacheSim, CacheStats
from .dram import DramModel, DramStats
from .hierarchy import HierarchyStats, TextureMemoryHierarchy, TileStreams
from .traffic import BandwidthBreakdown

__all__ = [
    "BandwidthBreakdown",
    "CacheSim",
    "CacheStats",
    "DramModel",
    "DramStats",
    "HierarchyStats",
    "TextureMemoryHierarchy",
    "TileStreams",
]
