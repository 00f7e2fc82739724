"""Order statistics and open-loop accounting used by every workload.

Percentiles use the nearest-rank definition so that "samples beyond the
percentile" is an exact count: the ``q``-th percentile of ``n`` sorted
samples is the sample at 1-based rank ``ceil(q/100 * n)``, and exactly
``n - ceil(q/100 * n)`` samples lie beyond it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Number of the ``n`` samples that lie beyond the ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int:
    """Highest whole percentile of ``n`` samples with ``min_beyond``
    samples beyond it.

    Raises ``ValueError`` when even the median leaves too few samples, so
    a phase sized too small fails loudly instead of reporting a maximum
    as a tail.
    """
    for q in range(99, 49, -1):
        if samples_beyond(n, q) >= min_beyond:
            return q
    raise ValueError(
        f"{n} samples cannot support a tail percentile with "
        f"{min_beyond} samples beyond it")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (not empty)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def goodput(latencies: Iterable[float | None], limit_s: float,
            duration_s: float) -> float:
    """Requests per second that completed within ``limit_s``.

    ``None`` entries are failures (shed, timeout, error) and count as
    misses, as does any latency above the limit.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    good = sum(1 for lat in latencies if lat is not None and lat <= limit_s)
    return good / duration_s
