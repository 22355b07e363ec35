"""The benchmark's generators: model-valid and seed-deterministic; the
widening pool widens and the steady churn keeps its live-edge count."""

import pytest

from perfbench.streams import steady_churn_stream, widening_pool_stream


def _replay(tokens):
    multiplicity = {}
    for token in tokens:
        pair = (token.u, token.v)
        multiplicity[pair] = multiplicity.get(pair, 0) + token.sign
        assert multiplicity[pair] >= 0, f"delete of non-live edge {pair}"
        assert multiplicity[pair] <= 1, f"re-insert of live edge {pair}"
    return multiplicity


def test_model_valid_and_exact_length():
    tokens = widening_pool_stream(10**7, 4, 64, 3000, "t")
    assert len(tokens) == 3000
    assert all(0 <= t.u < t.v < 10**7 for t in tokens)
    _replay(tokens)
    assert any(t.sign < 0 for t in tokens)


def test_same_seed_same_stream_other_seed_differs():
    first = widening_pool_stream(10**6, 4, 32, 500, "a")
    assert first == widening_pool_stream(10**6, 4, 32, 500, "a")
    assert first != widening_pool_stream(10**6, 4, 32, 500, "b")


def test_pool_widens_over_the_stream():
    tokens = widening_pool_stream(10**7, 4, 200, 4000, "w")
    seen, new_ids_per_quarter = set(), []
    for quarter in range(4):
        before = len(seen)
        for t in tokens[quarter * 1000 : (quarter + 1) * 1000]:
            seen.update((t.u, t.v))
        new_ids_per_quarter.append(len(seen) - before)
    # New ids keep arriving in every quarter, not only in the first batch.
    assert all(count > 20 for count in new_ids_per_quarter)
    assert len(seen) <= 200


def test_every_seed_has_the_same_live_and_touched_counts():
    def counts(seed):
        tokens = widening_pool_stream(10**7, 8, 160, 1280, seed)
        live, touched, seen = [], [], set()
        for end in range(128, 1281, 128):
            live.append(sum(_replay(tokens[:end]).values()))
            seen.update(i for t in tokens[end - 128 : end] for i in (t.u, t.v))
            touched.append(len(seen))
        return live, touched

    first = counts("s1")
    assert all(counts(seed) == first for seed in ("s2", "s3", "s4"))
    assert first[1][-1] >= 150


def test_shared_prefix_is_the_same_for_every_seed():
    first = widening_pool_stream(10**7, 8, 160, 1280, "a", shared_prefix=128)
    other = widening_pool_stream(10**7, 8, 160, 1280, "b", shared_prefix=128)
    assert first[:128] == other[:128]
    assert first[128:] != other[128:]
    _replay(other)
    churn = steady_churn_stream(24, 96, 96 + 256, "a")
    assert churn[:96] == steady_churn_stream(24, 96, 96 + 256, "b")[:96]


def test_opens_with_a_cycle_through_the_first_ids():
    tokens = widening_pool_stream(10**7, 8, 64, 500, "k")
    opening = tokens[:8]
    assert all(t.sign > 0 for t in opening)
    degree = {}
    for t in opening:
        for vertex in (t.u, t.v):
            degree[vertex] = degree.get(vertex, 0) + 1
    assert len(degree) == 8 and set(degree.values()) == {2}


@pytest.mark.parametrize("args", [(10, 2, 5, 10), (10, 6, 5, 10), (10, 3, 11, 10), (10, 4, 5, 4)])
def test_rejects_bad_pool_sizes(args):
    universe, start, final, length = args
    with pytest.raises(ValueError):
        widening_pool_stream(universe, start, final, length, "x")


def test_steady_churn_keeps_its_live_edge_count():
    tokens = steady_churn_stream(24, 96, 96 + 2 * 300, "c")
    assert len(tokens) == 96 + 600
    assert all(0 <= t.u < t.v < 24 for t in tokens)
    assert all(t.sign > 0 for t in tokens[:96])
    for end in range(96, len(tokens) + 1, 2):
        live = _replay(tokens[:end])
        assert sum(live.values()) == 96
    assert tokens == steady_churn_stream(24, 96, 96 + 600, "c")
    assert tokens != steady_churn_stream(24, 96, 96 + 600, "d")


@pytest.mark.parametrize("args", [(4, 0, 10), (4, 6, 10), (24, 96, 95)])
def test_steady_churn_rejects_bad_sizes(args):
    with pytest.raises(ValueError):
        steady_churn_stream(*args, "x")
