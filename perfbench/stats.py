"""Order statistics the benchmark reports.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it: with fewer, one slow sample moves it, and two runs of
the same code disagree.

A run's headline times are *floor sums* (:func:`floor_sum`): the rounds
of a run repeat identical calls, so each call position has one sample
per round, and its fastest sample is the one the host disturbed least.
"""

from __future__ import annotations

import math
import statistics

#: Samples a reported percentile needs strictly beyond its rank.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie past the nearest-rank
    ``q`` percentile (rank ``ceil(q * count)``, 1-based)."""
    return count - math.ceil(q * count)


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``values``, or
    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    if not ordered or samples_beyond(len(ordered), q) < MIN_BEYOND:
        return None
    return ordered[math.ceil(q * len(ordered)) - 1]


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else math.inf


def floor_sum(rounds, kinds=None) -> float:
    """Sum over call positions of the fastest repeat of each.

    ``rounds`` holds one list of ``(kind, seconds)`` per round, the calls
    in the order they were made; position ``i`` of every round is the
    same call.  With ``kinds``, only calls of those kinds are summed.
    """
    total = 0.0
    for column in zip(*rounds):
        if kinds is None or column[0][0] in kinds:
            total += min(seconds for _, seconds in column)
    return total
