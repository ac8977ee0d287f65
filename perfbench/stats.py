"""Summary rules the benchmark reports with."""

from __future__ import annotations

import math
import statistics


def tail_percentile(values):
    """``(p, value)`` for the highest whole percentile with ten samples above it.

    Nearest-rank percentile; ``None`` when fewer than eleven samples leave
    no percentile with ten samples beyond it.
    """
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def paired_difference(after, before) -> float:
    """Median of ``after[i] - before[i]``: the cost ``after`` adds, pair by pair.

    Each pair ran back to back, so a slow spell of the machine that spans a
    pair cancels out of its difference.
    """
    if len(after) != len(before) or not after:
        raise ValueError("need equally many samples, at least one")
    return statistics.median(a - b for a, b in zip(after, before))


def summary(samples) -> dict:
    """What a run reports of one metric: lowest, median, tail percentile, count."""
    return {"lowest": min(samples), "median": statistics.median(samples),
            "tail": tail_percentile(samples), "n": len(samples)}
