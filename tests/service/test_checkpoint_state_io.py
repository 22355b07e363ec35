"""Checkpoint state I/O: pinned bytes and restore-side stack storage.

The array-native codec and the whole-block stack loaders must leave the
checkpoint wire byte-for-byte unchanged (a SHA-256 pin of one seeded
sparse-universe session), and a restore must rebuild every sketch stack
in the storage the live session had: loading fingerprint residues
(always below ``p ~ 2^61``) must not count against the ``int64``
headroom guard and spill stacks the live session never spilled.
"""

import hashlib

import pytest

from repro.core import SparsifierParams, SpannerParams
from repro.graph.vertex_space import VertexSpace
from repro.service import GraphSession
from repro.sketch.columnar import SketchStack
from repro.stream.generators import sparse_touch_stream

UNIVERSE = 10**7

#: SHA-256 of the checkpoint :func:`_pinned_session` writes.  A change
#: here is a wire-format change: old checkpoints would stop restoring.
PINNED_SHA256 = "ae0f7b77a5fd926ea1871f2539521ac2f326f496c2d0000b9cdfd51533ad62e2"
PINNED_BYTES = 371_915


def _pinned_session() -> GraphSession:
    """All three slots, weighted (ledger weight bits >= 2^62), over a
    10^7-id sparse universe."""
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "checkpoint-pin",
        k=2,
        sparsifier_k=1,
        sparsifier_params=SparsifierParams(
            estimate_reps_factor=0.01, estimate_levels=1, sampling_levels=1,
            sampling_rounds_factor=0.001,
        ),
        spanner_params=SpannerParams(table_stacks=1, table_capacity_factor=0.75),
        weight_bounds=(1.0, 8.0),
        agm_rounds=8,
    )
    tokens = list(
        sparse_touch_stream(UNIVERSE, 48, 600, "checkpoint-pin", weights=(1.0, 8.0))
    )
    for start in range(0, len(tokens), 100):
        session.ingest_batch(tokens[start : start + 100])
    return session


def _stacks(root) -> list[SketchStack]:
    """Every :class:`SketchStack` reachable from ``root``, in a
    deterministic walk order (same structure -> same order)."""
    seen: set[int] = set()
    found: list[SketchStack] = []
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SketchStack):
            found.append(obj)
        elif isinstance(obj, dict):
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            pending.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            names = list(getattr(obj, "__dict__", {}))
            for klass in type(obj).__mro__:
                names.extend(getattr(klass, "__slots__", ()))
            pending.extend(getattr(obj, name) for name in names if hasattr(obj, name))
    return found


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "pin.ckpt"
    _pinned_session().checkpoint(path)
    data = path.read_bytes()
    assert len(data) == PINNED_BYTES
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256


def test_restored_session_rewrites_identical_bytes(tmp_path):
    saved, resaved = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    _pinned_session().checkpoint(saved)
    GraphSession.restore(saved).checkpoint(resaved)
    assert resaved.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("touched,tokens", [(400, 2000), (1000, 3000)])
def test_restore_spills_exactly_the_live_stacks(tmp_path, touched, tokens):
    """Regression: restores used to spill stacks (1 in ~100 on a 10^7-id
    universe) that live ingest never spilled."""
    session = GraphSession(
        VertexSpace.sparse(UNIVERSE),
        "spill-regression",
        agm_rounds=12,
        enable_spanner=False,
        enable_sparsifier=False,
    )
    stream = list(sparse_touch_stream(UNIVERSE, touched, tokens, "spill-regression"))
    for start in range(0, len(stream), 128):
        session.ingest_batch(stream[start : start + 128])
    path = tmp_path / "session.ckpt"
    session.checkpoint(path)
    restored = GraphSession.restore(path)
    live = [stack.is_spilled() for stack in _stacks(session)]
    after = [stack.is_spilled() for stack in _stacks(restored)]
    assert len(live) == len(after) > 0
    assert after == live
