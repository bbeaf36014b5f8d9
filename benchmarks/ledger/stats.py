"""Order statistics for the ledger: the percentile rule, run-to-run
spread and the rank correlation the cost-model agreement report uses."""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

#: A percentile is *supported* by a sample when at least this many
#: observations lie beyond it (choosing-metrics §1).
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Measure:
    """One reported number and how many observations stand behind it."""

    value: float
    n: int = 1


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile of *values*, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample (a layer that never ran)."""
    return float(statistics.median(values)) if values else 0.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of *values* (the observations between the
    quartiles, the two at the edges weighted by the part of them that
    lies inside).  As deaf to the tails as the median, but it moves
    smoothly when two neighbours in the middle swap places — a median
    over a few lumpy clusters jumps."""
    if not values:
        raise ValueError("interquartile mean of an empty sample")
    ordered = sorted(values)
    low, high = len(ordered) / 4.0, 3.0 * len(ordered) / 4.0
    total = weight = 0.0
    for index, value in enumerate(ordered):
        inside = min(index + 1.0, high) - max(float(index), low)
        if inside > 0:
            total += value * inside
            weight += inside
    return total / weight


def supports(count: int, pct: float) -> bool:
    """Does a sample of *count* leave MIN_BEYOND observations past *pct*?"""
    return round(count * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND


def tail_percentile(count: int) -> float:
    """The highest candidate percentile a sample of *count* supports;
    the median when even p75 is out of reach."""
    for pct in TAIL_CANDIDATES:
        if supports(count, pct):
            return pct
    return 50.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile used, its value)`` under the percentile rule."""
    pct = tail_percentile(len(values))
    return pct, (percentile(values, pct) if values else 0.0)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the number the
    acceptance rule compares with a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def _ranks(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        end = position
        while (end + 1 < len(order)
               and values[order[end + 1]] == values[order[position]]):
            end += 1
        shared = (position + end) / 2.0 + 1.0
        for index in order[position:end + 1]:
            ranks[index] = shared
        position = end + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rank correlation of two equally long samples."""
    if len(xs) != len(ys):
        raise ValueError("spearman needs samples of equal length")
    if len(xs) < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mean_x, mean_y = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if not var_x or not var_y:
        return 0.0
    return cov / (var_x * var_y) ** 0.5
