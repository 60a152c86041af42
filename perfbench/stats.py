"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> "tuple[int, float, int]":
    """The highest whole percentile with >= 10 samples beyond it.

    Returns ``(percentile, value, samples_beyond)``. The percentile is
    never below 50: with fewer than 20 samples the median is returned
    with the count actually beyond it, so the shortfall is visible.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = 50
    if n > TAIL_MIN_BEYOND:
        p = max(50, math.floor(100.0 * (n - TAIL_MIN_BEYOND) / n))
    rank = max(1, math.ceil(p / 100.0 * n))
    return p, ordered[rank - 1], n - rank


def median(values) -> float:
    return statistics.median(values)
