"""Percentiles and the sample-count rule for reported timings.

The report gives each timing's minimum, its median and the highest tail
percentile that still has at least ``MIN_BEYOND`` samples beyond it; a
percentile with fewer samples behind it says more about one unlucky call
than about the program. p90 is always given, with the number of samples
beyond it, so a thin tail is visible.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def supported_tail(n: int):
    """Highest percentile of the ladder with at least MIN_BEYOND samples
    beyond it, or None when even the median lacks them."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(values, unit: str) -> dict:
    """Minimum, median, p90 and the supported tail of one timing, with its
    counts."""
    n = len(values)
    tail = supported_tail(n)
    return {
        "unit": unit,
        "samples": n,
        "min": min(values),
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "p90_samples_beyond": samples_beyond(n, 90.0),
        "tail_pct": tail,
        "tail": None if tail is None else percentile(values, tail),
    }
