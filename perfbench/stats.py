"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
"""A tail percentile is reported only where this many samples lie beyond it."""


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """Value at the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    That is the (n - 10)-th smallest of n samples.  It never goes below the
    median: with fewer than 20 samples the median is returned instead, so
    the reported percentile is at least 50.  Returns (value, percentile).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - TAIL_BEYOND
    if rank < (n + 1) / 2:
        return median(ordered), 50.0
    return float(ordered[rank - 1]), 100.0 * rank / n
