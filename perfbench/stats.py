"""Order statistics shared by the runner and the compare mode."""

from __future__ import annotations

import statistics

# tail percentiles to choose from: the highest one with at least
# TAIL_BEYOND samples above it is reported.  The ladder stops at p99: on a
# shared two-core machine p99.9 of the query stream moved 14% between runs
# (five seeds), measuring the machine's stalls more than the library.
TAIL_LADDER = (50, 60, 70, 75, 80, 90, 95, 98, 99)
TAIL_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value, samples strictly above it) at the highest ladder
    percentile that leaves at least TAIL_BEYOND samples beyond it; the
    median when even that leaves fewer."""
    n = len(values)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            pct = p
    v = percentile(values, pct)
    return pct, v, sum(1 for x in values if x > v)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
