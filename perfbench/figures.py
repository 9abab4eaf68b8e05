"""Small arithmetic the report relies on (pinned by ``selfcheck.py``)."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; otherwise the sample cannot support it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(values: Sequence[float],
                         q: float) -> Optional[float]:
    """``percentile(values, q)`` when at least :data:`MIN_BEYOND`
    samples lie beyond it, else ``None``."""
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= MIN_BEYOND else None


def failed_share(attempted: int, errored: int, refused: int) -> float:
    """Failed or refused operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return (errored + refused) / attempted


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the values between the first and third quartile (the
    lowest and highest quarter of the sorted values dropped)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)
