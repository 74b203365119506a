"""Sample arithmetic: percentiles, the sample-count rule, worse-by shares."""

from __future__ import annotations

import math
from typing import Optional, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of an ascending sequence:
    the smallest value with at least ``q`` of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of p95/p99 that leaves at least ten samples beyond it
    (choosing-metrics §1); ``None`` below 200 samples."""
    for q in (0.99, 0.95):
        if count * (1.0 - q) >= 10.0 - 1e-9:
            return q
    return None


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """Median, p95 and (with >= 1000 samples) p99 in milliseconds, plus the
    sample count. p95 is reported whatever the count — the caller gates on
    :func:`highest_supported_percentile`."""
    ordered = sorted(seconds)
    out = {
        "samples": len(ordered),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
    }
    if highest_supported_percentile(len(ordered)) == 0.99:
        out["p99_ms"] = percentile(ordered, 0.99) * 1e3
    return out


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse (negative when
    it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change
