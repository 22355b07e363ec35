"""Kernel-backend gates: limb speedup, cross-backend identity, ladder scale.

The pluggable Mersenne-field backends (:mod:`repro.sketch.kernels`)
claim the uint128-limb fast path buys real end-to-end throughput while
every backend stays bit-identical — the whole point of a dispatch seam
is that correctness never depends on which implementation is active.
This bench pins both claims, plus the adaptive sizing ladder's
grow-without-re-ingest contract at million-vertex scale:

* **primitive rates** — per-backend element throughput for the three
  hottest kernels (``mulmod61``, ``polyhash61_rows``,
  ``scatter_sum_mod61``), reported for the regression baseline.  The
  native backend is measured only when a C compiler produced a real
  table (its keys are deliberately absent from the committed baseline
  so compiler-less machines still pass the gate).
* **end-to-end limb floor** — AGM connectivity ingest under the limb
  backend must run >= ``LIMB_SPEEDUP_FLOOR`` times the *committed*
  ``agm_connectivity_columnar`` floor from ``BENCH_columnar.json``:
  the fast path has to show up at algorithm level, not just in
  microbenchmarks.
* **cross-backend identity** — every available backend lands in the
  same ``shard_state_ints`` / ``state_digest`` for dense and lazy
  connectivity and the weighted sparsifier, and a session checkpointed
  under ``limb`` then killed and restored under ``reference`` answers
  identically after further ingest.
* **ladder scale** — a connectivity session started at a 2^10 rung and
  grown past 10^6 touched vertices digests bit-identically to a
  session provisioned for the final rung up front (state equality is
  strictly stronger than answer equality: every query decodes from
  that state).  The moderate-scale four-query-family identity lives in
  ``tests/service/test_ladder.py``; this is the scale acceptance.

Every measured rate lands in ``benchmarks/results/BENCH_kernels.json``;
``tools/perf_regress.py`` (run by ``make bench-kernels``) compares that
file against the committed conservative baseline and fails the build on
a > 20% regression.  ``docs/performance.md`` quotes the tables.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro import obs
from repro.agm.connectivity import ConnectivityChecker
from repro.core.parameters import SparsifierParams
from repro.core.sparsify import StreamingWeightedSparsifier
from repro.graph import VertexSpace
from repro.service import GraphSession, SketchLadder, rounds_for_capacity
from repro.sketch import kernels
from repro.sketch.hashing import MERSENNE_61
from repro.stream.generators import mixed_workload_stream
from repro.stream.updates import EdgeUpdate

#: The end-to-end acceptance stream length: 10^5 seeded dynamic updates.
STREAM_UPDATES = 100_000

#: Limb end-to-end gate, as a multiple of the committed
#: ``agm_connectivity_columnar`` floor in ``BENCH_columnar.json``.
LIMB_SPEEDUP_FLOOR = 1.5

#: Chunk size for all batched runs (the bench_columnar configuration).
BATCH_SIZE = 8_192

#: Element count for the primitive microbenchmarks.
PRIMITIVE_ELEMENTS = 1_000_000

#: Stream length for the cross-backend identity probes.
IDENTITY_UPDATES = 20_000

#: The ladder scale acceptance: a perfect matching of this many edges
#: touches twice as many vertices (> 10^6), grown from a 2^10 rung.
LADDER_EDGES = 550_000
LADDER_START = 1 << 10
LADDER_UNIVERSE = 1 << 21

#: Slim sparsifier constants (the bench_service configuration).
SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json"
COLUMNAR_BASELINE = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_columnar.json"
)

_RATES: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test selects backends freely; none leaks its choice."""
    before = kernels.active_backend()
    yield
    kernels.select_backend(before)


def _measured_backends() -> list[str]:
    """Backends worth timing: reference and limb always; native only
    when a compiler actually produced a table (selection would
    otherwise silently measure the limb fallback twice)."""
    names = ["reference", "limb"]
    if kernels.select_backend("native") == "native":
        names.append("native")
    return names


def _element_rate(func, *arrays) -> float:
    """Elements per second for ``func`` over ``arrays`` (>= 0.25 s)."""
    func(*arrays)  # warm up (native load, numpy allocator)
    reps = 0
    begin = time.perf_counter()
    while True:
        func(*arrays)
        reps += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= 0.25 and reps >= 3:
            return reps * PRIMITIVE_ELEMENTS / elapsed


def _ingest(algorithm, stream) -> float:
    """Batched single-pass ingest; returns updates per second."""
    begin = time.perf_counter()
    algorithm.begin_pass(0)
    for chunk in stream.iter_batches(BATCH_SIZE):
        algorithm.process_batch(chunk, 0)
    algorithm.end_pass(0)
    return len(stream) / (time.perf_counter() - begin)


# -- primitive rates ---------------------------------------------------


def test_primitive_rates():
    rng = np.random.default_rng(7)
    a = rng.integers(0, MERSENNE_61, PRIMITIVE_ELEMENTS, dtype=np.uint64)
    b = rng.integers(0, MERSENNE_61, PRIMITIVE_ELEMENTS, dtype=np.uint64)
    coeffs = rng.integers(0, MERSENNE_61, (512, 4), dtype=np.uint64)
    row_ids = rng.integers(0, 512, PRIMITIVE_ELEMENTS, dtype=np.int64)
    positions = rng.integers(0, 4096, PRIMITIVE_ELEMENTS, dtype=np.int64)
    terms = rng.integers(0, MERSENNE_61, PRIMITIVE_ELEMENTS, dtype=np.uint64)
    for backend in _measured_backends():
        assert kernels.select_backend(backend) == backend
        _RATES[f"prim_mulmod61_{backend}"] = round(
            _element_rate(kernels.mulmod61, a, b), 1
        )
        _RATES[f"prim_polyhash61_rows_{backend}"] = round(
            _element_rate(kernels.polyhash61_rows, coeffs, row_ids, a), 1
        )
        _RATES[f"prim_scatter_sum_mod61_{backend}"] = round(
            _element_rate(kernels.scatter_sum_mod61, 4096, positions, terms), 1
        )


# -- end-to-end limb floor ---------------------------------------------


def _agm_rate(backend: str) -> float:
    assert kernels.select_backend(backend) == backend
    stream = mixed_workload_stream(64, STREAM_UPDATES, "kernel-agm")
    return _ingest(ConnectivityChecker(64, "kernel-agm"), stream)


def test_limb_end_to_end_floor():
    """The dispatch seam must pay for itself: limb-backed AGM ingest
    beats the committed columnar floor by ``LIMB_SPEEDUP_FLOOR``x."""
    floor = json.loads(COLUMNAR_BASELINE.read_text())["updates_per_second"][
        "agm_connectivity_columnar"
    ]
    limb_rate = _agm_rate("limb")
    reference_rate = _agm_rate("reference")
    _RATES["agm_connectivity_limb"] = round(limb_rate, 1)
    _RATES["agm_connectivity_reference"] = round(reference_rate, 1)
    assert limb_rate >= LIMB_SPEEDUP_FLOOR * floor, (
        f"limb end-to-end rate {limb_rate:,.0f} up/s is below "
        f"{LIMB_SPEEDUP_FLOOR}x the committed columnar floor {floor:,.0f}"
    )


# -- cross-backend identity --------------------------------------------


def test_backends_bit_identical_dense_and_lazy():
    """Dense and lazy connectivity state is invariant to the backend."""
    states: dict[str, tuple] = {}
    for backend in _measured_backends():
        assert kernels.select_backend(backend) == backend
        dense = ConnectivityChecker(64, "kernel-ident")
        _ingest(dense, mixed_workload_stream(64, IDENTITY_UPDATES, "kernel-ident"))
        lazy = ConnectivityChecker(VertexSpace.sparse(1 << 14), "kernel-ident")
        _ingest(
            lazy, mixed_workload_stream(1 << 14, IDENTITY_UPDATES, "kernel-ident")
        )
        states[backend] = (list(dense.shard_state_ints(0)), lazy.state_digest())
    reference = states.pop("reference")
    for backend, state in states.items():
        assert state == reference, f"{backend} diverged from reference"


def test_backends_bit_identical_weighted():
    """The weighted sparsifier pipeline is invariant to the backend."""
    states = {}
    for backend in _measured_backends():
        assert kernels.select_backend(backend) == backend
        sparsifier = StreamingWeightedSparsifier(
            16, "kernel-weighted", 1.0, 4.0, k=1, params=SLIM
        )
        stream = mixed_workload_stream(
            16, IDENTITY_UPDATES, "kernel-weighted", weights=(1.0, 4.0)
        )
        begin = time.perf_counter()
        for pass_index in range(sparsifier.passes_required):
            sparsifier.begin_pass(pass_index)
            for chunk in stream.iter_batches(BATCH_SIZE):
                sparsifier.process_batch(chunk, pass_index)
            sparsifier.end_pass(pass_index)
        if backend == "limb":
            _RATES["weighted_sparsifier_limb"] = round(
                len(stream) / (time.perf_counter() - begin), 1
            )
        states[backend] = [
            sparsifier.shard_state_ints(p)
            for p in range(sparsifier.passes_required)
        ]
    reference = states.pop("reference")
    for backend, state in states.items():
        assert state == reference, f"{backend} diverged from reference"


def test_kill_restore_across_backends(tmp_path):
    """A session checkpointed under limb, killed, and restored under
    reference answers identically after further ingest — checkpoint
    bytes and kernel selection are fully orthogonal."""
    stream = list(mixed_workload_stream(64, 4_000, "kernel-restore"))
    half = len(stream) // 2
    assert kernels.select_backend("limb") == "limb"
    session = GraphSession(64, 7, sparsifier_params=SLIM)
    session.ingest_batch(stream[:half])
    path = tmp_path / "kernel-restore.bin"
    session.checkpoint(path)
    session.ingest_batch(stream[half:])
    limb_answers = session.snapshot_answers()

    assert kernels.select_backend("reference") == "reference"
    survivor = GraphSession.restore(path)
    survivor.ingest_batch(stream[half:])
    assert survivor.snapshot_answers() == limb_answers


# -- ladder scale acceptance -------------------------------------------


def test_ladder_grows_past_a_million_touched():
    """Start at a 2^10 rung, ingest a >10^6-vertex matching, and end in
    *exactly* the state of a session sized for the final rung up front.

    State-digest equality is the strongest identity probe available at
    this scale: every query family decodes deterministically from the
    sketch state, so equal digests mean equal answers for all of them
    without paying million-component forest extractions twice.
    """
    assert kernels.select_backend("limb") == "limb"
    updates = [EdgeUpdate(2 * i, 2 * i + 1, +1) for i in range(LADDER_EDGES)]
    deletes = [EdgeUpdate(u.u, u.v, -1) for u in updates[:20_000]]

    ladder = SketchLadder(start_capacity=LADDER_START)
    grown = GraphSession(
        VertexSpace.sparse(LADDER_UNIVERSE), 42,
        enable_spanner=False, enable_sparsifier=False, ladder=ladder,
    )
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    try:
        begin = time.perf_counter()
        for start in range(0, len(updates), BATCH_SIZE):
            grown.ingest_batch(updates[start : start + BATCH_SIZE])
        elapsed = time.perf_counter() - begin
    finally:
        obs.set_tracer(previous)
    grown.ingest_batch(deletes)
    _RATES["ladder_growth_connectivity"] = round(LADDER_EDGES / elapsed, 1)

    touched = grown._connectivity._sketch.num_touched_vertices()
    assert touched >= 1_000_000
    assert ladder.rung >= 1 << 20 and ladder.promotions >= 6
    assert grown.stats().ladder_promotions == ladder.promotions
    assert tracer.counters.get("session.ladder.promote", 0) == ladder.promotions

    upfront = GraphSession(
        VertexSpace.sparse(LADDER_UNIVERSE), 42,
        enable_spanner=False, enable_sparsifier=False,
        agm_rounds=rounds_for_capacity(ladder.rung),
    )
    begin = time.perf_counter()
    for start in range(0, len(updates), BATCH_SIZE):
        upfront.ingest_batch(updates[start : start + BATCH_SIZE])
    _RATES["agm_million_upfront"] = round(
        LADDER_EDGES / (time.perf_counter() - begin), 1
    )
    upfront.ingest_batch(deletes)

    assert (
        grown._connectivity.state_digest() == upfront._connectivity.state_digest()
    )


# -- persist -----------------------------------------------------------


def test_write_rates_json(results):
    """Last: persist every measured rate for tools/perf_regress.py."""
    payload = {
        "stream_updates": STREAM_UPDATES,
        "batch_size": BATCH_SIZE,
        "updates_per_second": dict(sorted(_RATES.items())),
    }
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    results(
        "bench_kernels_json",
        f"wrote {len(_RATES)} measured rates to {RESULTS_JSON.name} "
        "(regression-gated by tools/perf_regress.py)",
    )
    assert RESULTS_JSON.exists()
