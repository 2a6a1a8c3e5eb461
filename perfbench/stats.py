"""Arithmetic the benchmark reports with: medians, quartile spread,
percentiles with their sample count, failure share and span self time.

Pure functions over plain numbers so the tests can pin them exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the benchmark may report beside a median, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), the
    spread this benchmark's bounds are set against, over ten runs of a metric.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile out of (0, 100]: {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when the sample is too small for any of them; the median is
    then the only order statistic worth quoting.
    """
    for p in PERCENTILE_LADDER:
        # round away the float error in 100 - 99.9
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the sample supports, and the count."""
    out: Dict[str, float] = {"median": median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 0 or failed < 0:
        raise ValueError("counts must be non-negative")
    if failed > attempted:
        raise ValueError(f"failed ({failed}) exceeds attempted ({attempted})")
    return failed / attempted if attempted else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


#: A recorded span: ``(name, start, end, parent_index or None)``.
Span = Tuple[str, float, float, Optional[int]]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one parent never overlap (they come from one call stack),
    so their durations add. A child is clipped to its parent's interval so
    a clock that reads a hair late can never make self time negative.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is None:
            continue
        _pname, pstart, pend, _pp = spans[parent]
        covered[parent] += max(0.0, min(end, pend) - max(start, pstart))
    return [
        max(0.0, (end - start) - covered[i])
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]
