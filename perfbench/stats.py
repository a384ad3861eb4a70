"""Summary statistics with the sample-count rule.

A timing is reported as its median plus the highest percentile of
:data:`LADDER` that has at least :data:`MIN_BEYOND` samples beyond it;
with fewer samples than that rule needs, the median stands alone and the
sample count is stated beside it.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of ``n`` samples."""
    # The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank p-th."""
    return n - _rank(n, p)


def reportable_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    best = None
    for p in LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the p-th of ``values``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def describe_timing(name: str, values: Sequence[float]) -> str:
    """``name`` as median, best-supported percentile and sample count."""
    n = len(values)
    text = f"{name} p50 {statistics.median(values):.4f} s (n={n}"
    p = reportable_percentile(n)
    if p is not None and p > 50.0:
        text += f", p{p:g} {percentile(values, p):.4f} s"
    elif n:
        text += f"; no percentile above p50 has {MIN_BEYOND} samples beyond it"
    return text + ")"
