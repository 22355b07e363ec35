"""Percentiles are omitted without ten samples beyond them; floor sums."""

import statistics

from perfbench.stats import MIN_BEYOND, floor_sum, percentile, samples_beyond, spread


def test_p50_needs_twenty_samples():
    assert percentile(range(19), 0.5) is None
    assert percentile(range(20), 0.5) == 9
    assert samples_beyond(20, 0.5) == MIN_BEYOND


def test_p90_needs_a_hundred_samples():
    assert percentile(range(99), 0.9) is None
    assert percentile(range(100), 0.9) == 89
    assert percentile(range(1000), 0.9) == 899


def test_empty_and_order_independent():
    assert percentile([], 0.5) is None
    values = [5.0, 1.0, 3.0] * 10
    assert percentile(values, 0.5) == percentile(sorted(values), 0.5) == 3.0


def test_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 4.5, 5.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q2, q1, q3, (q3 - q1) / q2)


def test_floor_sum_takes_each_positions_fastest_repeat():
    rounds = [
        [("ingest", 3.0), ("query", 5.0), ("ingest", 2.0)],
        [("ingest", 1.0), ("query", 7.0), ("ingest", 4.0)],
        [("ingest", 2.0), ("query", 6.0), ("ingest", 3.0)],
    ]
    assert floor_sum(rounds) == 1.0 + 5.0 + 2.0
    assert floor_sum(rounds, {"ingest"}) == 1.0 + 2.0
    assert floor_sum(rounds[:1], {"query"}) == 5.0
    assert floor_sum([]) == 0.0
