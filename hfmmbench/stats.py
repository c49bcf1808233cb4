"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(pct: float, n: int) -> int:
    # the tolerance keeps 99.9 % of 10,000 at rank 9,990
    return max(1, math.ceil(pct * n / 100 - 1e-9))


def nearest_rank(values, pct: float) -> float:
    """The smallest sample with at least ``pct`` percent of samples at or
    below it."""
    ordered = sorted(values)
    return float(ordered[_rank(pct, len(ordered)) - 1])


def tail_percentile(n: int):
    """The highest ladder percentile that leaves at least ten of ``n``
    samples beyond it, or None when fewer than 20 samples exist."""
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def tail_summary(values):
    """(percentile, value) by the rule of ``tail_percentile``, or None."""
    pct = tail_percentile(len(values))
    return None if pct is None else (pct, nearest_rank(values, pct))


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
