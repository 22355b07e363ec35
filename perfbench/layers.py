"""Per-layer attribution for the traced run.

The traced run arms a :class:`repro.obs.Tracer` and wraps the public
entry points of each layer on the session path, so the program's own
spans (``session.ingest``, ``checkpoint.save``, ``session.ladder.promote``
...) and the benchmark's wrapper spans nest in one tree.  A layer's
time is *self* time: a span's duration minus the time its child spans
cover.  Nothing here waits on a queue (one caller, no threads), so no
wait times are reported.

Wrappers go where the callers look names up: ``repro.sketch.columnar``
imports its kernels by name, so the kernel wrappers replace that
module's bindings; likewise ``bfs_distances``/``cut_value`` in
``repro.service.session`` and ``pack_ints``/``unpack_ints`` in
``repro.service.checkpoint``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict

from repro import obs
from repro.sketch.columnar import SketchStack

#: Slot classes and the span prefix of each.  A slot call made while
#: another slot call is open (the sparsifier's sub-spanners) stays in
#: the outer slot's span.
SLOTS = (
    ("repro.agm.connectivity", "ConnectivityChecker", "agm"),
    ("repro.core.two_pass_spanner", "TwoPassSpannerBuilder", "spanner"),
    ("repro.core.sparsify", "StreamingSparsifier", "sparsifier"),
)

#: Kernel name -> role, wrapped on the modules that import them by name.
KERNEL_ROLES = {
    "polyhash61_rows": "hash",
    "stack_positions_terms": "positions",
    "powmod61_bases": "positions",
    "powmod61": "positions",
    "mulmod61": "positions",
    "build_pow_table": "positions",
    "scatter_sum_mod61": "sum",
    "addmod61": "sum",
    "submod61": "sum",
}
KERNEL_MODULES = (
    "repro.sketch.columnar",
    "repro.sketch.sparse_recovery",
    "repro.sketch.linear_hash_table",
)

#: (module, attribute, span name) for plain function bindings.
FUNCTIONS = (
    ("repro.service.session", "bfs_distances", "graph.bfs"),
    ("repro.service.session", "cut_value", "graph.cut_value"),
    ("repro.service.checkpoint", "pack_ints", "checkpoint.pack"),
    ("repro.service.checkpoint", "unpack_ints", "checkpoint.pack"),
)

#: Slot method -> span suffix (``process_batch``/``begin_pass`` depend
#: on the pass: see ``LayerProbe._slot_wrapper``).
SLOT_METHODS = {
    "process_batch": "ingest",
    "begin_pass": "replay",
    "end_pass": "replay",
    "clone": "clone",
    "finalize": "finalize",
    "spanning_forest": "forest",
}

#: (module, class, method, span name) for other wrapped methods
#: (``SketchStack.scatter`` has its own wrapper that also counts rows).
METHODS = (
    ("repro.sketch.sparse_recovery", "SparseRecoverySketch", "decode", "decode"),
    ("repro.sketch.linear_hash_table", "LinearHashTable", "decode", "decode"),
    ("repro.sketch.linear_hash_table", "NeighborhoodHashTable", "decode_neighbors", "decode"),
)

#: Per-layer time metrics (ms of self time) -> the span name they sum.
TIME_METRICS = {
    "session.ingest_self_ms": "session.ingest",
    "agm.ingest_ms": "agm.ingest",
    "agm.forest_ms": "agm.forest",
    "spanner.ingest_ms": "spanner.ingest",
    "spanner.clone_ms": "spanner.clone",
    "spanner.replay_ms": "spanner.replay",
    "spanner.finalize_self_ms": "spanner.finalize",
    "sparsifier.ingest_ms": "sparsifier.ingest",
    "sparsifier.clone_ms": "sparsifier.clone",
    "sparsifier.replay_ms": "sparsifier.replay",
    "sparsifier.finalize_self_ms": "sparsifier.finalize",
    "columnar.scatter_ms": "columnar.scatter",
    "kernels.hash_ms": "kernels.hash",
    "kernels.positions_ms": "kernels.positions",
    "kernels.sum_ms": "kernels.sum",
    "decode.ms": "decode",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "checkpoint.state_ints_ms": "checkpoint.state_ints",
    "checkpoint.pack_ms": "checkpoint.pack",
    "ladder.promote_ms": "session.ladder.promote",
    "graph.bfs_ms": "graph.bfs",
    "graph.cut_value_ms": "graph.cut_value",
}


class MemorySink:
    """Keeps every closed span in memory; the run writes them at the end."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        return None


def self_times(phases) -> dict[tuple[str, ...], float]:
    """Self seconds per span path: the path's total minus the totals of
    its direct child paths (``phases`` maps path -> ``PhaseStat``)."""
    children: dict[tuple[str, ...], float] = defaultdict(float)
    for path, stat in phases.items():
        if len(path) > 1:
            children[path[:-1]] += stat.seconds
    return {path: stat.seconds - children[path] for path, stat in phases.items()}


def self_time_by_layer(phases) -> dict[str, float]:
    """Self seconds summed per span name.

    Connectivity replay inside a ladder promotion is promotion work, so
    an ``agm.ingest`` span under ``session.ladder.promote`` counts there.
    """
    totals: dict[str, float] = defaultdict(float)
    for path, seconds in self_times(phases).items():
        name = path[-1]
        if name == "agm.ingest" and "session.ladder.promote" in path:
            name = "session.ladder.promote"
        totals[name] += seconds
    return totals


def ingest_split(phases) -> str:
    """Each slot's inclusive share of ``session.ingest`` time (its own
    code plus the columnar and kernel work under it), as one line."""
    totals: dict[str, float] = defaultdict(float)
    for path, stat in phases.items():
        if "session.ingest" not in path:
            continue
        name = path[-1]
        if name == "session.ingest" or name == "session.ladder.promote" or (
            name.endswith(".ingest") and "session.ladder.promote" not in path
        ):
            totals[name] += stat.seconds
    whole = totals.pop("session.ingest", 0.0)
    if not whole:
        return "no ingest traced"
    parts = [f"{name.split('.')[0] if name.endswith('.ingest') else 'ladder'} "
             f"{100 * seconds / whole:.1f}%" for name, seconds in sorted(totals.items())]
    rest = whole - sum(totals.values())
    return ", ".join(parts + [f"session self {100 * rest / whole:.1f}%"])


class LayerProbe:
    """Installs the wrappers on a tracer; :meth:`uninstall` undoes them."""

    def __init__(self, tracer: obs.Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self._slot_depth = 0
        self._undo: list[tuple[object, str, object | None]] = []

    def _patch(self, owner, attribute: str, make_wrapper) -> None:
        """Replace ``owner.attribute`` (own or inherited) with
        ``make_wrapper(original)``."""
        own = owner.__dict__.get(attribute)
        self._undo.append((owner, attribute, own))
        setattr(owner, attribute, make_wrapper(getattr(owner, attribute)))

    def install(self) -> "LayerProbe":
        for module_name, class_name, prefix in SLOTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in SLOT_METHODS:
                if hasattr(cls, method):
                    self._patch(cls, method, self._slot_wrapper(prefix, method))
            for method in ("shard_state_ints", "load_shard_state_ints"):
                self._patch(cls, method, self._span_wrapper("checkpoint.state_ints"))
        for module_name in KERNEL_MODULES:
            module = importlib.import_module(module_name)
            for kernel, role in KERNEL_ROLES.items():
                if kernel in module.__dict__:
                    self._patch(module, kernel, self._span_wrapper(f"kernels.{role}", "kernels.calls"))
        for module_name, attribute, span in FUNCTIONS:
            self._patch(importlib.import_module(module_name), attribute, self._span_wrapper(span))
        for module_name, class_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self._span_wrapper(span))
        self._patch(SketchStack, "scatter", self._scatter_wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, own = self._undo.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    @contextlib.contextmanager
    def paused(self):
        """Neither the wrappers nor the program's spans record inside
        this block (the harness's own checks run here)."""
        self.uninstall()
        previous = obs.set_tracer(obs.NOOP_TRACER)
        try:
            yield
        finally:
            obs.set_tracer(previous)
            self.install()

    def _span_wrapper(self, span: str, counter: str | None = None):
        tracer, counts = self.tracer, self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                if counter:
                    counts[counter] += 1
                with tracer.span(span):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def _scatter_wrapper(self, original):
        tracer, counts = self.tracer, self.counts

        def scatter(stack, *args, **kwargs):
            before = stack.resident_rows()
            with tracer.span("columnar.scatter"):
                result = original(stack, *args, **kwargs)
            if stack.lazy:
                counts["columnar.rows_interned"] += stack.resident_rows() - before
            return result

        return scatter

    def _slot_wrapper(self, prefix: str, method: str):
        probe = self

        def span_name(args) -> str | None:
            if method == "process_batch":
                if args[1] == 0:
                    return f"{prefix}.ingest"
                probe.counts["replay.tokens"] += len(args[0])
                return f"{prefix}.replay"
            if method == "begin_pass":
                # Pass 0 begins at construction; later passes are replay.
                return f"{prefix}.replay" if args[0] else None
            return f"{prefix}.{SLOT_METHODS[method]}"

        def make(original):
            def wrapper(obj, *args, **kwargs):
                name = None if probe._slot_depth else span_name(args)
                if name is None:
                    return original(obj, *args, **kwargs)
                probe._slot_depth += 1
                try:
                    with probe.tracer.span(name):
                        return original(obj, *args, **kwargs)
                finally:
                    probe._slot_depth -= 1

            return wrapper

        return make


def resident_words_by_slot(session) -> dict[str, int]:
    """``space_report()`` split per slot: ``agm*`` rows are connectivity,
    ``sparsifier pipeline`` the sparsifier, every other row the spanner."""
    components = session.space_report().components
    connectivity = sum(w for name, w in components.items() if name.startswith("agm"))
    sparsifier = components.get("sparsifier pipeline", 0)
    return {
        "resident_words.connectivity": connectivity,
        "resident_words.spanner": sum(components.values()) - connectivity - sparsifier,
        "resident_words.sparsifier": sparsifier,
    }


def layer_metrics(tracer: obs.Tracer, probe: LayerProbe, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times and counts are per traced round; ratios pool the whole traced
    portion of the run.
    """
    by_layer = self_time_by_layer(tracer.phases)
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name, span in TIME_METRICS.items():
        metrics[name] = (by_layer.get(span, 0.0) * 1e3 / rounds, "ms")
    hits = counters.get("session.cache.hit", 0)
    misses = counters.get("session.cache.miss", 0)
    attempts = counters.get("sketch.decode.attempt", 0)
    scatter = tracer.histograms.get("sketch.scatter.batch")
    per_round = {
        "replay.tokens": probe.counts["replay.tokens"],
        "columnar.scatter_calls": scatter.count if scatter else 0,
        "columnar.scatter_rows": scatter.total if scatter else 0,
        "columnar.spills": counters.get("sketch.spill", 0),
        "columnar.rows_interned": probe.counts["columnar.rows_interned"],
        "kernels.calls": probe.counts["kernels.calls"],
        "decode.attempts": attempts,
        "decode.peel_iterations": counters.get("sketch.decode.peel_iterations", 0),
        "checkpoint.bytes_written": counters.get("checkpoint.bytes_written", 0),
        "ladder.promotions": counters.get("session.ladder.promote", 0),
    }
    for name, value in per_round.items():
        metrics[name] = (value / rounds, "B" if name.endswith("bytes_written") else "count")
    metrics["session.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["decode.success_ratio"] = (
        1.0 - counters.get("sketch.decode.fail", 0) / attempts if attempts else 0.0, "ratio"
    )
    return metrics
