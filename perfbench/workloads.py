"""The three workloads, the timed-call recorder and the exact-truth oracle.

Every workload is a closed loop with one caller: the next call into the
:class:`~repro.service.GraphSession` starts only after the previous one
returned.  A run repeats *rounds* of fixed work, built from the run's
seed before any clock starts: at least ``rounds`` of them, and more
until ``--seconds`` of measured time have passed.  A round is:

* set-up: session construction plus an untimed warm-up prefix of the
  stream (first touch of the sketch arrays), timed as ``setup_s``;
* the workload's calls, each its own timed region (harness work between
  calls is not charged to the program), the same calls in the same
  order in every round;
* exact-truth checks between the timed regions, from the session's
  ledger (``live_graph()``), never inside them.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import time
import traceback
from collections import defaultdict
from pathlib import Path

from repro.core.parameters import SpannerParams, SparsifierParams
from repro.graph.cuts import cut_value
from repro.graph.distances import bfs_distances
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession, SketchLadder
from repro.service.workload import components_match_ledger
from repro.stream.generators import mixed_workload_stream

from perfbench.streams import steady_churn_stream, widening_pool_stream

#: ``benchmarks/bench_service.py``'s slim sparsifier (10 sub-spanners).
SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)

#: ``benchmarks/bench_sparse_universe.py``'s slim constants.
SLIM_SPARSIFIER = SparsifierParams(
    estimate_reps_factor=0.01, estimate_levels=1, sampling_levels=1,
    sampling_rounds_factor=0.001,
)
SLIM_SPANNER = SpannerParams(table_stacks=1, table_capacity_factor=0.75)

#: Spanner depth of every workload: answers must stay within stretch 2^K.
K = 2


class Recorder:
    """Timed calls, failures and answer quality for one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.quality: dict[str, list[float]] = defaultdict(list)
        #: Each round's timed calls in order, as ``(kind, seconds)``.
        self.rounds: list[list[tuple[str, float]]] = []
        self.tokens = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Context for harness work between timed calls; the traced run
        #: sets it to one that stops tracing, so checks are not charged
        #: to the program's layers.
        self.untraced = contextlib.nullcontext

    def new_round(self) -> None:
        """Start recording another round's calls."""
        self.rounds.append([])

    def call(self, kind: str, fn, *args):
        """Run one timed call; returns ``(ok, value)``.

        An exception is a failed operation: it is counted and the run
        goes on, so ``failed_frac`` covers it.
        """
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            return True, fn(*args)
        except Exception as error:  # counted, not fatal: see docstring
            self.fail(f"{kind} raised {_described(error)}")
            return False, None
        finally:
            elapsed = time.perf_counter() - start
            self.samples[kind].append(elapsed)
            if not self.rounds:
                self.new_round()
            self.rounds[-1].append((kind, elapsed))

    def verify(self, what: str, fn, *args) -> None:
        """An untimed correctness probe that counts as one operation."""
        self.attempted += 1
        try:
            with self.untraced():
                ok = fn(*args)
        except Exception as error:  # counted, not fatal
            self.fail(f"{what} raised {_described(error)}")
            return
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count one failed operation (the first few are kept for the log)."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def _described(error: Exception) -> str:
    """The exception and the innermost frame that raised it."""
    frame = traceback.extract_tb(error.__traceback__)[-1]
    return f"{error!r} at {frame.filename}:{frame.lineno} in {frame.name}"


def _check_outcome(rec: Recorder, outcome, what: str) -> bool:
    """A degraded :class:`~repro.service.QueryOutcome` is a failure."""
    if not outcome.ok:
        rec.fail(f"{what} degraded: {outcome.detail}")
        return False
    return True


def _connected_pairs_agree(session: GraphSession, pairs: int = 8) -> bool:
    """``connected`` on pairs of live-edge endpoints against a union-find
    over the ledger's live edges (cache hits after the component decode)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in session.live_graph().edges():
        parent[find(u)] = find(v)
    vertices = sorted(parent)[: 2 * pairs]
    return all(
        session.connected(u, v) == (find(u) == find(v))
        for u, v in zip(vertices[::2], vertices[1::2])
    )


class Workload:
    """One workload: its inputs, set-up, round and end-of-run check."""

    name = ""
    #: Rounds a run makes at least; the headline times come from exactly
    #: these (see ``worker.end_to_end``).  Sized so that they take about
    #: 20 s here and every reported percentile has ten samples beyond it.
    rounds = 20
    #: Set-ups a round makes (it plays on the last): more samples for
    #: ``setup_s`` where one set-up is short.
    setups = 1

    def sizes(self) -> dict:
        """The workload's sizes, printed with its results."""
        raise NotImplementedError

    def inputs(self, seed: int):
        """All inputs of a run, generated from ``seed`` before any clock."""
        raise NotImplementedError

    def setup(self, inputs) -> GraphSession:
        """Construct a session and feed it the warm-up prefix."""
        raise NotImplementedError

    def round(self, session: GraphSession, inputs, rec: Recorder, scratch: Path) -> GraphSession:
        """One round of timed calls; returns the session that is live after it."""
        raise NotImplementedError

    def finish(self, session: GraphSession, rec: Recorder) -> None:
        """The end-of-run check: decoded components, then ``connected``
        answers, against the ledger."""
        rec.verify("components differ from the ledger", components_match_ledger, session)
        rec.verify("connected differs from the ledger", _connected_pairs_agree, session)


class IngestDense(Workload):
    name = "ingest-dense"
    n = 1024
    batch = 2048
    warm = 2048
    batches = 3

    def sizes(self) -> dict:
        return {"n": self.n, "batch": self.batch, "batches_per_round": self.batches,
                "warm_tokens": self.warm, "delete_fraction": 0.35, "sparsifier": "SLIM"}

    def inputs(self, seed: int):
        stream = mixed_workload_stream(
            self.n, self.warm + self.batch * self.batches, f"ingest-dense:{seed}",
            delete_fraction=0.35,
        )
        return list(stream)

    def setup(self, tokens) -> GraphSession:
        session = GraphSession(self.n, f"perfbench:{self.name}", k=K, sparsifier_k=1,
                               sparsifier_params=SLIM)
        session.ingest_batch(tokens[: self.warm])
        return session

    def round(self, session, tokens, rec, scratch):
        for start in range(self.warm, len(tokens), self.batch):
            batch = tokens[start : start + self.batch]
            ok, _ = rec.call("ingest", session.ingest_batch, batch)
            if ok:
                rec.tokens += len(batch)
        return session


class ServeFresh(Workload):
    name = "serve-fresh"
    rounds = 24
    setups = 3
    n = 24
    batch = 256
    #: The warm-up inserts this many distinct edges; every later batch
    #: deletes and inserts in pairs, so each cold query sees this many.
    warm = 96
    steps = 1
    repeats = 2

    def sizes(self) -> dict:
        return {"n": self.n, "batch": self.batch, "steps_per_round": self.steps,
                "warm_repeats": self.repeats, "live_edges": self.warm,
                "stream": "steady churn", "sparsifier": "SLIM"}

    def inputs(self, seed: int):
        tokens = steady_churn_stream(
            self.n, self.warm, self.warm + self.batch * self.steps, f"serve-fresh:{seed}")
        rng = random.Random(f"serve-fresh-queries:{seed}")
        queries = []
        for _ in range(self.steps):
            u, v = rng.sample(range(self.n), 2)
            side = tuple(sorted(rng.sample(range(self.n), self.n // 2)))
            queries.append((u, v, side))
        return tokens, queries

    def setup(self, inputs) -> GraphSession:
        tokens, _ = inputs
        session = GraphSession(self.n, f"perfbench:{self.name}", k=K, sparsifier_k=1,
                               sparsifier_params=SLIM)
        session.ingest_batch(tokens[: self.warm])
        return session

    def round(self, session, inputs, rec, scratch):
        tokens, queries = inputs
        for step in range(self.steps):
            start = self.warm + step * self.batch
            batch = tokens[start : start + self.batch]
            ok, _ = rec.call("ingest", session.ingest_batch, batch)
            if ok:
                rec.tokens += len(batch)
            u, v, side = queries[step]
            with rec.untraced():
                graph = session.live_graph()
                exact = bfs_distances(graph, u)
            asks = (
                ("connected", ("connected", u, v)),
                ("spanner", ("spanner-distance", u, v)),
                ("cut", ("cut", side)),
            )
            cold = {}
            for kind, args in asks:
                ok, outcome = rec.call(f"{kind}_cold", session.query, *args)
                if ok and _check_outcome(rec, outcome, kind):
                    cold[kind] = outcome.value
            with rec.untraced():
                self._check(rec, cold, exact, v, graph, side)
            for _ in range(self.repeats):
                for kind, args in asks:
                    ok, outcome = rec.call("warm", session.query, *args)
                    if ok and _check_outcome(rec, outcome, kind) and kind in cold \
                            and outcome.value != cold[kind]:
                        rec.fail(f"warm {kind} answer {outcome.value} != cold {cold[kind]}")
        return session

    @staticmethod
    def _check(rec: Recorder, cold: dict, exact: dict, v: int, graph, side) -> None:
        truth = exact.get(v, math.inf)
        if "connected" in cold and cold["connected"] != (truth < math.inf):
            rec.fail(f"connected={cold['connected']} but BFS distance is {truth}")
        if "spanner" in cold:
            estimate = cold["spanner"]
            if truth == math.inf:
                if estimate != math.inf:
                    rec.fail(f"spanner distance {estimate} for a disconnected pair")
            elif not truth <= estimate <= (2 ** K) * truth:
                rec.fail(f"spanner distance {estimate} outside [{truth}, {2 ** K * truth}]")
            else:
                rec.quality["stretch"].append(estimate / truth)
        if "cut" in cold:
            exact_cut = cut_value(graph, frozenset(side))
            if exact_cut > 0:
                rec.quality["cut_rel_err"].append(abs(cold["cut"] - exact_cut) / exact_cut)


class SparseGrow(Workload):
    name = "sparse-grow"
    universe = 10**7
    start_ids = 8
    final_ids = 160
    rounds = 12
    setups = 3
    rung = 64
    batch = 128
    warm = 128
    batches = 9
    checkpoint_every = 4

    def sizes(self) -> dict:
        return {"universe": self.universe, "ids": f"{self.start_ids}->{self.final_ids}",
                "ladder_start": self.rung, "batch": self.batch,
                "batches_per_round": self.batches, "checkpoint_every": self.checkpoint_every,
                "warm_tokens": self.warm, "delete_fraction": 0.3,
                "sparsifier": "SLIM_SPARSIFIER", "spanner": "SLIM_SPANNER"}

    def inputs(self, seed: int):
        return widening_pool_stream(
            self.universe, self.start_ids, self.final_ids,
            self.warm + self.batch * self.batches, f"sparse-grow:{seed}",
            shared_prefix=self.warm,
        )

    def setup(self, tokens) -> GraphSession:
        session = GraphSession(
            VertexSpace.sparse(self.universe), f"perfbench:{self.name}", k=K,
            sparsifier_k=1, sparsifier_params=SLIM_SPARSIFIER,
            spanner_params=SLIM_SPANNER, ladder=SketchLadder(self.rung),
        )
        session.ingest_batch(tokens[: self.warm])
        return session

    def round(self, session, tokens, rec, scratch):
        saved, resaved = scratch / "session.ckpt", scratch / "restored.ckpt"
        for index, start in enumerate(range(self.warm, len(tokens), self.batch), 1):
            batch = tokens[start : start + self.batch]
            ok, _ = rec.call("ingest", session.ingest_batch, batch)
            if ok:
                rec.tokens += len(batch)
            if index % self.checkpoint_every:
                continue
            ok, _ = rec.call("checkpoint", session.checkpoint, saved)
            if not ok:
                continue
            rec.quality["checkpoint_bytes"].append(saved.stat().st_size)
            ok, restored = rec.call("restore", GraphSession.restore, saved)
            if not ok:
                continue
            rec.verify("restored state differs from the live session's",
                       _same_serialized_state, restored, saved, resaved)
            session = restored
        return session


def _same_serialized_state(restored: GraphSession, saved: Path, resaved: Path) -> bool:
    """Whether ``restored`` serializes to exactly the bytes it came from."""
    restored.checkpoint(resaved)
    return resaved.read_bytes() == saved.read_bytes()


WORKLOADS = {w.name: w for w in (IngestDense(), ServeFresh(), SparseGrow())}
