"""Order statistics for the end-to-end metrics."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# candidate tail percentiles, highest first
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest grid percentile with at least MIN_BEYOND of n samples above it."""
    for p in TAIL_GRID:
        if n - rank(p, n) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")


def rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n sorted samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))  # exact: 99.9% of 10000 is 9990


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def median(values) -> float:
    return statistics.median(values)
