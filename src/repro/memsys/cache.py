"""Set-associative LRU cache simulator, one access at a time.

``CacheSim`` walks a stream through per-set dicts in a Python loop. It
is the oracle of the bulk simulator in :mod:`repro.memsys.lru`, which
production code uses. Consecutive duplicate addresses are collapsed
vectorized before the walk — a duplicate of the immediately preceding
access is always a hit in an LRU cache, so the collapse is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CacheConfig
from ..errors import ConfigError

#: Line size shared by the whole hierarchy (matches texture addressing).
CACHE_LINE_BYTES_DEFAULT = 64


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits

    def to_dict(self) -> "dict[str, float]":
        """JSON-ready snapshot (for the metrics JSONL sink and tooling)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


def collapse_consecutive(lines: np.ndarray) -> "tuple[np.ndarray, int]":
    """Drop consecutive duplicate addresses.

    Returns the collapsed stream and the number of dropped accesses
    (each an assured LRU hit).
    """
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size == 0:
        return lines, 0
    keep = np.empty(lines.shape, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    dropped = int(lines.size - keep.sum())
    return lines[keep], dropped


def checked_num_sets(config: CacheConfig) -> int:
    """The cache's set count; set indexing needs a power of two."""
    num_sets = config.num_sets
    if num_sets & (num_sets - 1):
        raise ConfigError(f"number of sets must be a power of two, got {num_sets}")
    return num_sets


class CacheSim:
    """One set-associative LRU cache, one access at a time.

    The reference the bulk simulator (:mod:`repro.memsys.lru`) is
    checked against; production code does not call it.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = checked_num_sets(config)
        self._set_mask = num_sets - 1
        self._ways = config.ways
        # One insertion-ordered dict of resident line addresses per
        # set: first key is LRU, last key is MRU. A dict makes every
        # LRU operation O(1) — membership, touch (del + reinsert at
        # the end), and victim pick (first key) — where the previous
        # list representation paid an O(ways) scan *and* an O(ways)
        # shift per access; the hit/miss stream is identical.
        self._sets: "list[dict[int, None]]" = [{} for _ in range(num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Invalidate all lines and zero the statistics."""
        for s in self._sets:
            s.clear()
        self.stats = CacheStats()

    def access(self, lines: np.ndarray) -> np.ndarray:
        """Process a line-address stream; return the miss addresses in order.

        The input should be the raw access stream; consecutive
        duplicates are collapsed internally (and counted as hits).
        """
        collapsed, dropped = collapse_consecutive(lines)
        self.stats.accesses += int(np.asarray(lines).size)
        self.stats.hits += dropped
        if collapsed.size == 0:
            return collapsed

        misses: "list[int]" = []
        misses_append = misses.append
        sets = self._sets
        mask = self._set_mask
        ways = self._ways
        hits = 0
        for addr in collapsed.tolist():
            resident = sets[addr & mask]
            if addr in resident:
                del resident[addr]
                hits += 1
            else:
                misses_append(addr)
                if len(resident) >= ways:
                    del resident[next(iter(resident))]
            resident[addr] = None
        self.stats.hits += hits
        return np.asarray(misses, dtype=np.int64)
