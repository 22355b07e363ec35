"""Seeded input streams the benchmark generates before any clock starts.

``widening_pool_stream`` is the sparse-grow input: the repo's
``sparse_touch_stream`` draws every endpoint from its whole id pool at
once, so lazy-row interning happens in the first batch and never again.
Here the pool of active ids grows linearly over the stream, so new rows
keep being interned and the sizing ladder keeps promoting.

``steady_churn_stream`` is the serve-fresh input: the graph it leaves
after every even-length prefix past its inserts has exactly the same
number of live edges, so the cost of a cold query does not depend on
the seed's random walk of the edge count (``mixed_workload_stream`` at
n=24 leaves 70 to 132 live edges after 512 tokens, depending on the
seed, and a cold cut costs about that much more or less).

Both open with a prefix that is the same for every seed: the workloads
feed it as their warm-up, so ``setup_s`` times the same work on every
seed.
"""

from __future__ import annotations

import math
import random

from repro.stream.updates import EdgeUpdate


def widening_pool_stream(
    universe: int,
    start_ids: int,
    final_ids: int,
    length: int,
    seed: str,
    delete_fraction: float = 0.3,
    shared_prefix: int = 0,
) -> list[EdgeUpdate]:
    """A model-valid insert/delete stream whose id pool widens over time.

    ``final_ids`` distinct ids are drawn from ``[0, universe)``.  The
    stream opens with a cycle through the first ``start_ids`` of them
    (``start_ids`` inserts).  Token ``t`` of the ``rest`` that follow
    draws from the first ``start_ids + (final_ids - start_ids) * t /
    rest`` ids (one more while that pool has no free pair).  Deletes are
    spread evenly: token ``t`` deletes a uniformly chosen live edge iff
    ``ceil((t + 1) * delete_fraction) > ceil(t * delete_fraction)``, so
    multiplicities stay 0/1.  Every other token inserts a pair that is
    not live, whose first endpoint is the earliest id of the pool not
    touched yet, if there is one.  So after each prefix every seed has
    the same number of live edges and of touched ids; only which ids and
    pairs differ.  The ids and the first ``shared_prefix`` tokens are the
    same for every ``seed``.  The same arguments give the same list.
    """
    if not 3 <= start_ids <= final_ids <= universe:
        raise ValueError(
            f"need 3 <= start_ids <= final_ids <= universe, got "
            f"{start_ids}, {final_ids}, {universe}"
        )
    if not 0.0 <= delete_fraction < 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1), got {delete_fraction}")
    rest = length - start_ids
    if rest <= 0:
        raise ValueError(f"length {length} leaves no tokens after the {start_ids}-edge cycle")
    rng = random.Random("widening-pool")
    ids = rng.sample(range(universe), final_ids)
    index = {vertex: i for i, vertex in enumerate(ids)}
    live = [(min(u, v), max(u, v)) for u, v in zip(ids[:start_ids], ids[1:start_ids] + ids[:1])]
    live_set = set(live)
    tokens = [EdgeUpdate(u, v, +1) for u, v in live]
    touched = start_ids

    def free_pairs(active: int) -> int:
        inside = sum(1 for u, v in live if index[u] < active and index[v] < active)
        return active * (active - 1) // 2 - inside

    for t in range(rest):
        if len(tokens) == max(shared_prefix, start_ids):
            rng = random.Random(f"widening-pool:{seed}")
        if live and math.ceil((t + 1) * delete_fraction) > math.ceil(t * delete_fraction):
            position = rng.randrange(len(live))
            live[position], live[-1] = live[-1], live[position]
            pair = live.pop()
            live_set.remove(pair)
            tokens.append(EdgeUpdate(pair[0], pair[1], -1))
            continue
        active = start_ids + (final_ids - start_ids) * t // rest
        while free_pairs(active) == 0:
            active += 1
        while True:
            first = touched if touched < active else rng.randrange(active)
            u, v = ids[first], ids[rng.randrange(active)]
            pair = (min(u, v), max(u, v))
            if u != v and pair not in live_set:
                break
        touched = max(touched, first + 1)
        live.append(pair)
        live_set.add(pair)
        tokens.append(EdgeUpdate(pair[0], pair[1], +1))
    return tokens


def steady_churn_stream(
    num_vertices: int, live_edges: int, length: int, seed: str
) -> list[EdgeUpdate]:
    """``live_edges`` inserts of distinct pairs, then delete/insert pairs.

    After the first ``live_edges`` tokens, every even-numbered token
    deletes a uniformly chosen live edge and the next one inserts a
    uniformly chosen pair that is not live, so each prefix of length
    ``live_edges + 2j`` leaves exactly ``live_edges`` live edges.  The
    inserts that open the stream are the same for every ``seed``; the
    stream is ``length`` tokens long; the same arguments give the same
    list.
    """
    pairs = num_vertices * (num_vertices - 1) // 2
    if not 0 < live_edges < pairs:
        raise ValueError(f"need 0 < live_edges < {pairs}, got {live_edges}")
    if length < live_edges:
        raise ValueError(f"length {length} is shorter than the {live_edges} inserts")
    rng = random.Random("steady-churn")
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()
    tokens: list[EdgeUpdate] = []

    def insert() -> None:
        while True:
            u, v = rng.sample(range(num_vertices), 2)
            pair = (min(u, v), max(u, v))
            if pair not in live_set:
                break
        live.append(pair)
        live_set.add(pair)
        tokens.append(EdgeUpdate(pair[0], pair[1], +1))

    while len(tokens) < live_edges:
        insert()
    rng = random.Random(f"steady-churn:{seed}")
    while len(tokens) < length:
        if (len(tokens) - live_edges) % 2 == 0:
            position = rng.randrange(len(live))
            live[position], live[-1] = live[-1], live[position]
            pair = live.pop()
            live_set.remove(pair)
            tokens.append(EdgeUpdate(pair[0], pair[1], -1))
        else:
            insert()
    return tokens
