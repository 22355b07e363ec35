"""Sparse vertex-universe gates: memory proportional to touched vertices.

The lazy :class:`~repro.graph.vertex_space.VertexSpace` engine claims
that a session over a huge id space (``10^7`` logical vertices) ingests
at columnar speed while holding sketch state proportional to the
vertices that actually appear in the stream — and that it is a pure
storage change, bit-identical to the dense engine on the same touched
subgraph.  This bench pins all three claims on seeded streams:

* **full-session gate** — a four-query (connected / forest /
  spanner-distance / cut) session over a ``10^7``-id universe ingests a
  sparse-touch stream, answers every query kind, matches the exact
  ledger's components, and keeps resident words under ``1/1000`` of the
  dense-universe allocation;
* **memory-proportionality gate** — connectivity sessions at touched
  counts ``T`` and ``2T`` (same universe) must scale resident words by
  ``~2x``, not by the universe, and ingest above a conservative
  throughput floor;
* **dense/lazy identity gate** — on a moderate universe the lazy
  engine's wire state must equal the dense engine's on a long stream;
* **checkpoint/restore gate** — the full session's checkpoint and
  restore byte rates, with the restored session rewriting identical
  bytes.

Measured rates land in ``benchmarks/results/BENCH_sparse.json``;
``tools/perf_regress.py`` (run by ``make bench-sparse``) compares them
against the committed floors in ``benchmarks/baselines/BENCH_sparse.json``
and fails the build on a > 20% regression.  Single-core gates only (the
reference container has 1 CPU).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.agm.connectivity import ConnectivityChecker
from repro.core.parameters import SparsifierParams, SpannerParams
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession, WorkloadDriver, components_match_ledger
from repro.stream.generators import sparse_session_ops, sparse_touch_stream

#: The headline universe: ten million logical vertex ids.
UNIVERSE = 10_000_000

#: Touched ids for the four-query full-session gate (spanner/sparsifier
#: table layouts scale ~touched^{1.5}, so the full pipeline runs smaller
#: than the connectivity-only proportionality probe).
SESSION_TOUCHED = 384

#: Touched ids for the connectivity-only proportionality probe.
PROPORTIONALITY_TOUCHED = 4_096

#: Conservative ingest floor for the connectivity-only huge-universe
#: session (measured ~8-12k updates/s on the reference container).
INGEST_FLOOR = 2_500

#: Resident state must stay under this fraction of the dense-universe
#: allocation at bench scale.
RESIDENT_FRACTION_CEILING = 1e-3

#: Resident words at 2T touched may be at most this multiple of the
#: words at T touched (perfect proportionality would be ~2.0).
PROPORTIONALITY_CEILING = 2.8

SLIM_SPARSIFIER = SparsifierParams(
    estimate_reps_factor=0.01, estimate_levels=1, sampling_levels=1,
    sampling_rounds_factor=0.001,
)
SLIM_SPANNER = SpannerParams(table_stacks=1, table_capacity_factor=0.75)

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_sparse.json"

_RATES: dict[str, float] = {}

#: Checkpoint bytes per second of the 10^7-id session's save and
#: restore (a return to per-row state I/O is a ~5x drop).
_CHECKPOINT_RATES: dict[str, float] = {}

#: Timed repeats per checkpoint/restore measurement (the best counts).
CHECKPOINT_REPEATS = 5


def _connectivity_session(touched: int) -> GraphSession:
    import math

    return GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "bench-sparse-conn",
        enable_spanner=False,
        enable_sparsifier=False,
        agm_rounds=max(4, math.ceil(math.log2(touched))) + 2,
    )


def _ingest_stream(session: GraphSession, touched: int, updates: int, seed) -> float:
    tokens = list(sparse_touch_stream(UNIVERSE, touched, updates, seed))
    begin = time.perf_counter()
    for start in range(0, len(tokens), 8192):
        session.ingest_batch(tokens[start : start + 8192])
    return len(tokens) / (time.perf_counter() - begin)


@pytest.fixture(scope="module")
def proportionality_runs():
    runs = {}
    for label, touched in (("T", PROPORTIONALITY_TOUCHED), ("2T", 2 * PROPORTIONALITY_TOUCHED)):
        session = _connectivity_session(touched)
        rate = _ingest_stream(session, touched, 3 * touched, f"bench-prop-{label}")
        stats = session.stats()
        runs[label] = {
            "touched": stats.touched_vertices,
            "resident_words": stats.space_words,
            "universe_words": stats.universe_space_words,
            "rate": rate,
            "ledger_ok": components_match_ledger(session),
        }
    return runs


@pytest.fixture(scope="module")
def full_session():
    """The four-query 10^7-id session, driven once per module."""
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "bench-sparse-session",
        k=2,
        sparsifier_k=1,
        sparsifier_params=SLIM_SPARSIFIER,
        spanner_params=SLIM_SPANNER,
        agm_rounds=12,
    )
    ops = sparse_session_ops(
        UNIVERSE,
        SESSION_TOUCHED,
        3_000,
        "bench-sparse-session",
        query_every=750,
        query_repeats=2,
    )
    begin = time.perf_counter()
    report = WorkloadDriver(session).run(ops, scenario="sparse-universe")
    return session, report, time.perf_counter() - begin


def test_full_session_gate(full_session, results):
    """10^7-id universe, four query kinds, resident << dense universe."""
    session, report, elapsed = full_session
    stats = session.stats()
    answered = {kind for kind in report.latencies}
    fraction = stats.space_words / stats.universe_space_words
    _RATES["sparse_session_ingest"] = round(report.ingest_rate, 1)
    table = "\n".join([
        f"sparse-universe session: {UNIVERSE:,} ids, "
        f"{stats.touched_vertices} touched, {report.updates:,} updates "
        f"({elapsed:.1f} s total):",
        f"  ingest    : {report.ingest_rate:>10,.0f} updates/s",
        f"  queries   : {sorted(answered)} all answered "
        f"({report.queries} total, {report.cache_hits} cached)",
        f"  resident  : {stats.space_words:,} words vs "
        f"{stats.universe_space_words:,} dense-universe words "
        f"(fraction {fraction:.2e}, ceiling {RESIDENT_FRACTION_CEILING:.0e})",
        f"  verified  : components match the exact ledger",
    ])
    results("bench_sparse_session", table)
    assert answered == {"connected", "forest", "spanner_distance", "cut"}, (
        f"expected all four query kinds answered, got {sorted(answered)}"
    )
    assert report.skipped_queries == 0
    assert stats.touched_vertices <= SESSION_TOUCHED
    assert fraction < RESIDENT_FRACTION_CEILING, (
        f"resident fraction {fraction:.2e} above {RESIDENT_FRACTION_CEILING}"
    )
    assert components_match_ledger(session)


def _best_seconds(action, repeats: int = CHECKPOINT_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - begin)
    return best


def test_checkpoint_restore_gate(full_session, results, tmp_path):
    """Checkpoint and restore of the 10^7-id session run array-native:
    their byte rates are floor-gated, and the restored session rewrites
    the identical bytes."""
    session = full_session[0]
    saved, resaved = tmp_path / "session.ckpt", tmp_path / "restored.ckpt"
    save_s = _best_seconds(lambda: session.checkpoint(saved))
    size = saved.stat().st_size
    restored = []
    restore_s = _best_seconds(lambda: restored.append(GraphSession.restore(saved)))
    restored[-1].checkpoint(resaved)
    _CHECKPOINT_RATES["sparse_checkpoint_save"] = round(size / save_s, 1)
    _CHECKPOINT_RATES["sparse_checkpoint_restore"] = round(size / restore_s, 1)
    table = "\n".join([
        f"checkpoint/restore of the {UNIVERSE:,}-id session "
        f"({size:,} bytes, best of {CHECKPOINT_REPEATS}):",
        f"  checkpoint: {1e3 * save_s:>8.1f} ms  ({size / save_s / 1e6:.1f} MB/s)",
        f"  restore   : {1e3 * restore_s:>8.1f} ms  ({size / restore_s / 1e6:.1f} MB/s)",
    ])
    results("bench_sparse_checkpoint", table)
    assert resaved.read_bytes() == saved.read_bytes()


def test_memory_proportionality_gate(proportionality_runs, results):
    """Resident words scale with touched vertices, not the universe."""
    base = proportionality_runs["T"]
    double = proportionality_runs["2T"]
    growth = double["resident_words"] / base["resident_words"]
    _RATES["sparse_connectivity_ingest"] = round(base["rate"], 1)
    _RATES["sparse_connectivity_ingest_2x"] = round(double["rate"], 1)
    table = "\n".join([
        f"memory proportionality over a {UNIVERSE:,}-id universe "
        f"(connectivity-only sessions):",
        f"  touched {base['touched']:>6,}: {base['resident_words']:>14,} resident words, "
        f"{base['rate']:>9,.0f} updates/s",
        f"  touched {double['touched']:>6,}: {double['resident_words']:>14,} resident words, "
        f"{double['rate']:>9,.0f} updates/s",
        f"  growth    : {growth:.2f}x for 2x touched "
        f"(ceiling {PROPORTIONALITY_CEILING}x; universe-driven would be ~1x "
        f"at {base['universe_words']:,} words)",
    ])
    results("bench_sparse_proportionality", table)
    assert base["ledger_ok"] and double["ledger_ok"]
    assert 1.4 <= growth <= PROPORTIONALITY_CEILING, (
        f"resident growth {growth:.2f}x outside the touched-proportional band"
    )
    for run in (base, double):
        assert run["resident_words"] < run["universe_words"] * 1e-2
        assert run["rate"] >= INGEST_FLOOR, (
            f"huge-universe ingest {run['rate']:,.0f} updates/s under the "
            f"{INGEST_FLOOR:,} floor"
        )


def test_dense_lazy_identity_long_stream(results):
    """Moderate universe: lazy wire state equals dense on 3*10^4 tokens."""
    n, updates = 64, 30_000
    tokens = list(sparse_touch_stream(n, n, updates, "bench-sparse-ident"))
    dense = ConnectivityChecker(n, "bench-ident")
    lazy = ConnectivityChecker(VertexSpace.sparse(n), "bench-ident")
    begin = time.perf_counter()
    for start in range(0, updates, 8192):
        dense.process_batch(tokens[start : start + 8192], 0)
    dense_rate = updates / (time.perf_counter() - begin)
    begin = time.perf_counter()
    for start in range(0, updates, 8192):
        lazy.process_batch(tokens[start : start + 8192], 0)
    lazy_rate = updates / (time.perf_counter() - begin)
    _RATES["dense_engine_connectivity"] = round(dense_rate, 1)
    _RATES["lazy_engine_connectivity"] = round(lazy_rate, 1)
    identical = list(dense.shard_state_ints(0)) == list(lazy.shard_state_ints(0))
    table = "\n".join([
        f"dense vs lazy engine on the same {n}-id universe "
        f"({updates:,} tokens, batch 8,192):",
        f"  dense : {dense_rate:>10,.0f} updates/s",
        f"  lazy  : {lazy_rate:>10,.0f} updates/s",
        f"  wire  : {'bit-identical' if identical else 'DIVERGED'}",
    ])
    results("bench_sparse_identity", table)
    assert identical, "lazy engine wire state diverged from the dense engine"


def test_write_rates_json(proportionality_runs, results):
    """Last: persist every measured rate for tools/perf_regress.py."""
    payload = {
        "universe": UNIVERSE,
        "updates_per_second": dict(sorted(_RATES.items())),
        "checkpoint_bytes_per_second": dict(sorted(_CHECKPOINT_RATES.items())),
    }
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    results(
        "bench_sparse_json",
        f"wrote {len(_RATES) + len(_CHECKPOINT_RATES)} measured rates to {RESULTS_JSON.name} "
        "(regression-gated by tools/perf_regress.py)",
    )
    assert RESULTS_JSON.exists()
