"""The two-level texture memory hierarchy.

Each of the GPU's texture units owns a private L1 texture cache; all
units share the texture L2 (the GPU LLC for texture traffic, Table I).
Tiles are distributed round-robin over the texture units — the same
static schedule the tiling engine uses — so each unit's L1 sees its own
tiles' fetch stream, and the L2 sees the interleaved union of the L1
miss streams in tile order.

Both levels are simulated in bulk by :func:`repro.memsys.lru.lru_misses`,
with no Python loop over accesses or units. The L1s run as one cache
whose sets are the (unit, set) pairs: tagging each line with its unit
keeps the units' L1s apart, and each such lane sees exactly its unit's
accesses to that set, in stream order. The L1 misses keep their
positions in the frame's stream, so the L2 sees them in the same
interleaved tile order a tile-by-tile simulation produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import GpuConfig
from ..errors import PipelineError
from ..obs import TELEMETRY
from .cache import CacheStats, checked_num_sets
from .dram import DramModel, DramStats
from .lru import lru_misses


@dataclass
class HierarchyStats:
    """Aggregated statistics for one frame's texture traffic."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dram: DramStats = field(default_factory=DramStats)

    @property
    def texel_reads(self) -> int:
        return self.l1.accesses

    @property
    def dram_bytes(self) -> int:
        return self.dram.bytes_fetched

    def to_dict(self) -> "dict[str, dict]":
        """JSON-ready snapshot (for the metrics JSONL sink and tooling)."""
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "dram": self.dram.to_dict(),
        }


@dataclass(frozen=True)
class TileStreams:
    """One frame's texel fetch stream, cut into tiles in scheduling order.

    Tile ``t`` runs on texture unit ``units[t]`` and fetches
    ``lines[offsets[t]:offsets[t + 1]]`` in intra-tile raster order.
    Iterating yields ``(unit, lines)`` pairs, one per tile.
    """

    lines: np.ndarray
    units: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_pairs(
        cls, pairs: "list[tuple[int, np.ndarray]]"
    ) -> "TileStreams":
        units = np.array([unit for unit, _ in pairs], dtype=np.int64)
        segments = [np.asarray(lines, dtype=np.int64) for _, lines in pairs]
        offsets = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([s.size for s in segments], out=offsets[1:])
        lines = np.concatenate(segments) if segments else np.empty(0, np.int64)
        return cls(lines, units, offsets)

    def __len__(self) -> int:
        return self.units.size

    def __iter__(self):
        for t in range(self.units.size):
            yield int(self.units[t]), self.lines[self.offsets[t] : self.offsets[t + 1]]


class TextureMemoryHierarchy:
    """Simulates the L1s, the shared L2 and DRAM for one frame.

    Stateless between frames: every :meth:`process_frame` starts from
    empty caches.
    """

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        self._l1_sets = checked_num_sets(config.texture_l1)
        self._l2_sets = checked_num_sets(config.texture_l2)
        self._dram = DramModel(config.memory)

    def process_frame(
        self, tile_streams: "TileStreams | list[tuple[int, np.ndarray]]"
    ) -> HierarchyStats:
        """Run one frame of texture fetches through the hierarchy.

        Args:
            tile_streams: the frame's tiles in scheduling order, as a
                :class:`TileStreams` or a list of ``(unit_index,
                line_addresses)`` pairs. Each tile's stream is already
                in intra-tile raster order.
        """
        if not isinstance(tile_streams, TileStreams):
            tile_streams = TileStreams.from_pairs(tile_streams)
        with TELEMETRY.span("memsys.process_frame", tiles=len(tile_streams)):
            units = tile_streams.units
            num_units = self.config.num_texture_units
            bad = units[(units < 0) | (units >= num_units)]
            if bad.size:
                raise PipelineError(f"texture unit index {bad[0]} out of range")
            l2_lines = self._l1_misses(tile_streams)
            dram_lines = l2_lines[
                lru_misses(l2_lines, self._l2_sets, self.config.texture_l2.ways)
            ]
            accesses = tile_streams.lines.size
            stats = HierarchyStats(
                l1=CacheStats(accesses, accesses - l2_lines.size),
                l2=CacheStats(l2_lines.size, l2_lines.size - dram_lines.size),
                dram=self._dram.observe(dram_lines),
            )
        if TELEMETRY.enabled:
            TELEMETRY.count("memsys.l1_hit", stats.l1.hits)
            TELEMETRY.count("memsys.l1_miss", stats.l1.misses)
            TELEMETRY.count("memsys.l2_hit", stats.l2.hits)
            TELEMETRY.count("memsys.l2_miss", stats.l2.misses)
            TELEMETRY.count("memsys.dram_lines", stats.dram.lines_fetched)
            TELEMETRY.count("memsys.dram_bytes", stats.dram.bytes_fetched)
        return stats

    def _l1_misses(self, tile_streams: TileStreams) -> np.ndarray:
        """The L1 miss lines of all units, in the frame's tile order."""
        lines, offsets = tile_streams.lines, tile_streams.offsets
        n = lines.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # A repeat of the previous access in the same tile is an L1 hit;
        # dropping it first shrinks the lane sort's input.
        fresh = np.empty(n, dtype=bool)
        fresh[0] = True
        np.not_equal(lines[1:], lines[:-1], out=fresh[1:])
        tile_starts = offsets[:-1]
        fresh[tile_starts[tile_starts < n]] = True
        kept = np.flatnonzero(fresh)
        del fresh
        per_tile = np.diff(np.searchsorted(kept, offsets))
        lines = lines[kept]
        del kept
        # Insert the unit's bits just above the set bits: the tagged
        # line's set is the (unit, set) lane, and lines of different
        # units never compare equal.
        sets = self._l1_sets
        set_bits = sets.bit_length() - 1
        unit_bits = (self.config.num_texture_units - 1).bit_length()
        units = tile_streams.units.astype(np.int64)
        tagged = np.repeat(units << set_bits, per_tile)
        tagged |= (lines >> set_bits) << (set_bits + unit_bits)
        tagged |= lines & (sets - 1)
        ways = self.config.texture_l1.ways
        return lines[lru_misses(tagged, sets << unit_bits, ways)]

    def dram_transfer_cycles(self, stats: HierarchyStats) -> float:
        return self._dram.transfer_cycles(stats.dram)

    def dram_average_latency(self, stats: HierarchyStats) -> float:
        return self._dram.average_latency(stats.dram)
