import math
import random

import stats


def test_tail_is_highest_percentile_with_ten_beyond():
    rng = random.Random(0)
    for n in range(20, 400):
        values = [rng.random() for _ in range(n)]
        p, value, beyond = stats.tail(values)
        ordered = sorted(values)
        assert beyond >= stats.TAIL_MIN_BEYOND
        assert sum(v > value for v in values) == beyond
        assert value == stats.percentile(values, p)
        # the next whole percentile would leave fewer than ten beyond it
        assert n - math.ceil((p + 1) / 100 * n) < stats.TAIL_MIN_BEYOND
        assert ordered.index(value) == n - beyond - 1


def test_tail_reports_count_below_twenty_samples():
    p, value, beyond = stats.tail(list(range(1, 12)))
    assert (p, value, beyond) == (50, 6, 5)
    assert stats.tail(list(range(1, 23))) == (54, 12, 10)
