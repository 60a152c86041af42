"""Tests for the bulk stack-distance LRU simulator."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, GpuConfig
from repro.memsys import lru
from repro.memsys.cache import CacheSim
from repro.memsys.hierarchy import TextureMemoryHierarchy, TileStreams
from repro.verify.reference import ref_memory_hierarchy


def _dict_misses(lines, sets, ways):
    sim = CacheSim(CacheConfig(size_bytes=sets * ways * 64, ways=ways))
    return sim.access(np.asarray(lines, dtype=np.int64))


def _ping_pong(pairs=50_000):
    """A, then a B/C ping-pong in A's set, then A again."""
    a, b, c = 7, 7 + 64, 7 + 128
    return np.concatenate([[a], np.tile([b, c], pairs), [a]]).astype(np.int64)


@pytest.fixture
def fallback_queries(monkeypatch):
    """Window counts handed to the exact fallback, one entry per call."""
    calls = []
    original = lru._distinct_in_windows

    def spy(prev, start, end):
        calls.append(start.size)
        return original(prev, start, end)

    monkeypatch.setattr(lru, "_distinct_in_windows", spy)
    return calls


class TestLruMisses:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=300),
        st.sampled_from([(1, 1), (1, 4), (2, 2), (4, 2), (4, 4), (8, 1)]),
    )
    def test_misses_match_dict_lru(self, stream, geometry):
        sets, ways = geometry
        lines = np.asarray(stream, dtype=np.int64)
        got = lines[lru.lru_misses(lines, sets, ways)]
        assert got.tolist() == _dict_misses(lines, sets, ways).tolist()

    def test_empty_stream(self):
        assert lru.lru_misses(np.empty(0, dtype=np.int64), 4, 2).size == 0

    def test_window_longer_than_scan_goes_to_exact_count(self, fallback_queries):
        # Both windows are longer than the scan; one holds 3 distinct
        # lines, the other 4, so a 4-way set hits the first and misses
        # the second.
        few = [0, 1, 2] * 20
        lines = np.array([9] + few + [9] + few + [3] + [9], dtype=np.int64)
        assert len(few) > lru.SCAN_ROUNDS
        misses = lines[lru.lru_misses(lines, 1, 4)]
        assert misses.tolist() == _dict_misses(lines, 1, 4).tolist()
        assert sum(fallback_queries) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_count_below_matches_brute_force(self, data):
        values = np.array(
            data.draw(st.lists(st.integers(0, 70), min_size=1, max_size=60)),
            dtype=np.int64,
        )
        queries = data.draw(st.lists(
            st.tuples(
                st.integers(0, values.size), st.integers(0, values.size),
                st.integers(0, 80),
            ),
            min_size=1, max_size=20,
        ))
        first = np.array([min(a, b) for a, b, _ in queries])
        stop = np.array([max(a, b) for a, b, _ in queries])
        bounds = np.array([c for _, _, c in queries])
        got = lru._count_below(values, first, stop, bounds)
        want = [
            int(np.count_nonzero(values[f:e] < c))
            for f, e, c in zip(first, stop, bounds)
        ]
        assert got.tolist() == want


class TestPingPongWorstCase:
    """One reuse spanning a 100k-access ping-pong over two lines."""

    def _frame(self):
        return [(0, _ping_pong())]

    def test_stats_exact_and_leftover_path_runs(self, fallback_queries):
        config = GpuConfig()
        got = TextureMemoryHierarchy(config).process_frame(self._frame())
        assert got.to_dict() == ref_memory_hierarchy(config, self._frame()).to_dict()
        assert got.l1.misses == 3  # A, B and C once each; A's reuse hits
        assert fallback_queries, "the long window never reached the exact count"

    @pytest.mark.slow
    def test_no_slower_than_twice_the_dict_oracle(self):
        config = GpuConfig()
        frame = TileStreams.from_pairs(self._frame())
        hierarchy = TextureMemoryHierarchy(config)

        def best(fn, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        fast = best(lambda: hierarchy.process_frame(frame))
        oracle = best(lambda: ref_memory_hierarchy(config, frame))
        assert fast <= 2.0 * oracle, (fast, oracle)
