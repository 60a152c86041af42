"""Exact bulk LRU simulation by stack distance.

An access to line ``x`` hits a ``ways``-way LRU set iff fewer than
``ways`` distinct lines of that set were touched since the previous
access to ``x`` (Mattson, Gecsei, Slutz & Traiger, "Evaluation
techniques for storage hierarchies", IBM Systems Journal 1970). Sets
never interact, so each access is decided from its own set's stream
(its *lane*), in bulk:

1. A stable sort by set puts each lane's accesses together in stream
   order. A repeat of the lane's previous line is a hit (zero distinct
   lines in between), so only the first access of each run is kept.
2. A stable sort of the kept lines links every access to the previous
   use of its line. A first use misses; a gap of fewer than ``ways``
   accesses hits, because a gap bounds the distinct count.
3. Every other access counts the distinct lines in its window. A line
   is counted at its first position in the window, where its own
   previous use lies before the window. A scan of the first
   :data:`SCAN_ROUNDS` window positions decides most windows. The rest
   (long windows over few lines) get an exact offline dominance count
   over a wavelet matrix, ``O(n log n)`` for the whole stream.

The dict-LRU :class:`~repro.memsys.cache.CacheSim` is the oracle this
module is checked against (``repro verify``'s ``diff_memsys`` and
``tests/properties/test_cache_oracle.py``).
"""

from __future__ import annotations

import numpy as np

#: Window positions the scan examines before the exact fallback.
SCAN_ROUNDS = 32
#: Window positions examined per vectorized scan step.
SCAN_CHUNK = 8


def lru_misses(lines: np.ndarray, num_sets: int, ways: int) -> np.ndarray:
    """Positions of an access stream's misses in one LRU cache, in stream order.

    Args:
        lines: line address of every access, in stream order.
        num_sets: set count (a power of two); a line's set is its low bits.
        ways: associativity.
    """
    n = lines.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # A narrow key keeps the set sort a one- or two-pass radix sort.
    set_key = lines.astype(np.min_scalar_type(num_sets - 1)) & (num_sets - 1)
    order = np.argsort(set_key, kind="stable")
    del set_key
    grouped = lines[order]
    # A line has one set, so every set boundary is also a change of line.
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=run_start[1:])
    runs = np.flatnonzero(run_start)
    position = order[runs]
    line = grouped[runs]
    del order, grouped, run_start

    prev = _previous_use(line)
    miss = prev < 0
    far = np.flatnonzero((prev >= 0) & (np.arange(line.size) - prev > ways))
    if far.size:
        miss[far] = _window_misses(prev, prev[far], far, ways)
    return np.sort(position[miss])


def _previous_use(line: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line, or -1."""
    by_line = np.argsort(line, kind="stable")
    earlier, later = by_line[:-1], by_line[1:]
    same = line[later] == line[earlier]
    prev = np.full(line.size, -1, dtype=np.int64)
    prev[later[same]] = earlier[same]
    return prev


def _window_misses(
    prev: np.ndarray, start: np.ndarray, end: np.ndarray, ways: int
) -> np.ndarray:
    """Whether each window ``(start, end)`` holds at least ``ways`` distinct lines.

    Windows lie inside one lane. Position ``k`` is a line's first in
    the window iff ``prev[k] < start``.
    """
    miss = np.zeros(start.size, dtype=bool)
    live = np.arange(start.size)
    seen = np.zeros(start.size, dtype=np.int64)
    last = prev.size - 1
    for first_step in range(1, SCAN_ROUNDS + 1, SCAN_CHUNK):
        k = start[:, None] + np.arange(first_step, first_step + SCAN_CHUNK)
        new_line = (prev[np.minimum(k, last)] < start[:, None]) & (k < end[:, None])
        seen += new_line.sum(axis=1)
        full = seen >= ways
        miss[live[full]] = True
        open_ = ~full & (end - start > first_step + SCAN_CHUNK)
        live, start, end, seen = live[open_], start[open_], end[open_], seen[open_]
        if not live.size:
            return miss
    miss[live] = _distinct_in_windows(prev, start, end) >= ways
    return miss


def _distinct_in_windows(
    prev: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Exact ``#{k in (start, end): prev[k] < start}`` for every window.

    Only positions inside some window matter, so the dominance count
    runs over their union, where each window is a contiguous range.
    """
    lo = int(start.min())
    span = int(end.max()) - lo + 1
    depth = np.bincount(start + 1 - lo, minlength=span)
    depth -= np.bincount(end - lo, minlength=span)
    covered = np.flatnonzero(np.cumsum(depth) > 0) + lo
    return _count_below(
        prev[covered] + 1,
        np.searchsorted(covered, start + 1),
        np.searchsorted(covered, end),
        start + 1,
    )


def _count_below(
    values: np.ndarray, first: np.ndarray, stop: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``#{i in [first[q], stop[q]): values[i] < bounds[q]}`` for every query.

    A wavelet matrix walked top bit first: each level stably moves the
    values with a 0 bit ahead of those with a 1 bit, and every query
    follows its bound's prefix, collecting the values that branch below
    it. ``O((n + queries) log max)``; ``values`` must be non-negative.
    """
    count = np.zeros(bounds.size, dtype=np.int64)
    lo = first.astype(np.int64)
    hi = stop.astype(np.int64)
    top = max(int(values.max(initial=0)), int(bounds.max(initial=0)))
    for bit in reversed(range(top.bit_length())):
        is_one = (values >> bit) & 1 == 1
        zeros = np.flatnonzero(~is_one)
        zeros_lo = np.searchsorted(zeros, lo)
        zeros_hi = np.searchsorted(zeros, hi)
        take = (bounds >> bit) & 1 == 1
        count += np.where(take, zeros_hi - zeros_lo, 0)
        lo = np.where(take, zeros.size + lo - zeros_lo, zeros_lo)
        hi = np.where(take, zeros.size + hi - zeros_hi, zeros_hi)
        values = np.concatenate([values[zeros], values[is_one]])
    return count
