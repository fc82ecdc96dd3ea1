"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def low(values: Sequence[float], pct: float = 10.0) -> float:
    """Nearest-rank ``pct``-th percentile: the slowest of few iteration rates.

    With fewer than 10 values it is the smallest.
    """
    ordered = sorted(values)
    return float(ordered[max(math.ceil(len(ordered) * pct / 100.0), 1) - 1])


def tail(values: Sequence[float], cap: float = 99.0) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the reported tail.

    The tail is the highest percentile, up to ``cap``, that has at least ten
    samples beyond it: with n samples that is the (n - 10)-th smallest value,
    at percentile 100 * (n - 10) / n, until n is large enough for ``cap``
    (1 000 samples for p99) to have ten beyond it. Below 20 samples that
    percentile would not lie above the median, so the median is reported
    instead, as p50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    if n < 2 * TAIL_BEYOND:
        return 50.0, median(ordered), n
    cap_rank = math.ceil(n * cap / 100.0)  # nearest-rank percentile
    rank = min(n - TAIL_BEYOND, cap_rank)  # samples at or below the reported value
    pct = cap if rank == cap_rank else 100.0 * rank / n
    return pct, float(ordered[rank - 1]), n
