"""Percentiles, spreads and bound checks shared by run.py and repeat.py."""

import math
import statistics

# Percentiles a tail may be reported at, highest first, in tenths of a
# percent so that "ten samples beyond" is decided in exact integers.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100.0 - 1e-9)
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def tail_percentile(count):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it
    in `count` samples, or None when even the median has fewer."""
    for tenths in TAIL_LADDER:
        if count * (1000 - tenths) >= 10 * 1000:
            return tenths / 10
    return None


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def worse_by(before, after, better):
    """Share by which `after` is worse than `before` (negative = better)."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def within_bound(before, after, better, bound):
    """True when `after` is not worse than `before` by more than `bound`."""
    return worse_by(before, after, better) <= bound
