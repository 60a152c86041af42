"""Oracle tests for the cache simulators.

``CacheSim``, the dict LRU, carries one optimization (consecutive
duplicates are collapsed before the walk). The oracle below is written
for clarity, not speed — an OrderedDict per set — and hypothesis drives
both with the same random streams. ``CacheSim`` is in turn the oracle of
the bulk stack-distance hierarchy (``repro.memsys.lru``): whole
multi-unit frames must give identical ``HierarchyStats``.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, GpuConfig
from repro.memsys.cache import CacheSim
from repro.memsys.hierarchy import TextureMemoryHierarchy
from repro.verify.reference import ref_memory_hierarchy


class OracleLru:
    """Textbook set-associative LRU cache."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, addr: int) -> bool:
        """Return True on hit."""
        target = self.sets[addr % self.num_sets]
        if addr in target:
            target.move_to_end(addr)
            return True
        if len(target) >= self.ways:
            target.popitem(last=False)
        target[addr] = True
        return False


@st.composite
def _stream(draw):
    length = draw(st.integers(min_value=0, max_value=200))
    # A small address universe forces conflict and capacity behaviour.
    return [draw(st.integers(min_value=0, max_value=40)) for _ in range(length)]


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(_stream(), st.sampled_from([(1, 1), (2, 2), (4, 2), (4, 4)]))
    def test_hit_counts_match(self, stream, geometry):
        sets, ways = geometry
        sim = CacheSim(CacheConfig(size_bytes=sets * ways * 64, ways=ways))
        oracle = OracleLru(sets, ways)

        arr = np.asarray(stream, dtype=np.int64)
        misses = sim.access(arr)
        oracle_hits = sum(oracle.access(a) for a in stream)

        assert sim.stats.accesses == len(stream)
        assert sim.stats.hits == oracle_hits
        assert len(misses) == len(stream) - oracle_hits

    @settings(max_examples=30, deadline=None)
    @given(_stream())
    def test_chunked_access_equals_single_call(self, stream):
        """Feeding the stream in pieces must not change behaviour."""
        config = CacheConfig(size_bytes=4 * 2 * 64, ways=2)
        whole = CacheSim(config)
        chunked = CacheSim(config)
        arr = np.asarray(stream, dtype=np.int64)
        whole_misses = whole.access(arr)

        pieces = []
        for start in range(0, len(arr), 7):
            pieces.append(chunked.access(arr[start : start + 7]))
        chunked_misses = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        assert whole.stats.hits == chunked.stats.hits
        assert np.array_equal(whole_misses, chunked_misses)


@st.composite
def _frame(draw):
    """Tile streams over few units and a small line universe."""
    tiles = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.lists(st.integers(min_value=0, max_value=60), max_size=40),
        ),
        max_size=12,
    ))
    return [(unit, np.asarray(lines, dtype=np.int64)) for unit, lines in tiles]


class TestHierarchyOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        _frame(),
        st.sampled_from([(1, 1, 1, 2), (2, 2, 1, 4), (4, 2, 4, 4), (1, 4, 2, 1)]),
    )
    def test_bulk_hierarchy_matches_tile_by_tile_dict_lru(self, frame, geometry):
        l1_sets, l1_ways, l2_sets, l2_ways = geometry
        config = GpuConfig(
            texture_l1=CacheConfig(size_bytes=l1_sets * l1_ways * 64, ways=l1_ways),
            texture_l2=CacheConfig(size_bytes=l2_sets * l2_ways * 64, ways=l2_ways),
        )
        got = TextureMemoryHierarchy(config).process_frame(frame)
        assert got.to_dict() == ref_memory_hierarchy(config, frame).to_dict()
