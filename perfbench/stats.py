"""Summary statistics shared by the benchmark and its report."""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def median(samples) -> float:
    return float(statistics.median(samples))


def mean(samples) -> float:
    return float(statistics.fmean(samples))


def tail(samples, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value, sample count). The value is the order
    statistic with exactly ``min_beyond`` samples beyond it. When the run
    holds too few samples for that order statistic to lie above the median,
    the median is returned and the percentile reads 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - min_beyond  # samples at or below the returned value
    if k <= n / 2:
        return 50.0, median(ordered), n
    return 100.0 * k / n, float(ordered[k - 1]), n
