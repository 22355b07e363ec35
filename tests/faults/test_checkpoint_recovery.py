"""Checkpoint-seam recovery: sweeps, fallback chains, clean failures.

The durability claims under fault: a crash at *any* save epoch restores
and finishes bit-identically; a corrupted newest checkpoint falls back
to an older intact one; a torn write leaves no temp state behind and
the previous checkpoint untouched; a forced decode failure degrades one
query without poisoning the epoch cache.
"""

import pytest

from repro import faults
from repro.faults import FaultPlan, apply_corruption
from repro.graph.vertex_space import VertexSpace
from repro.service import checkpoint as checkpoint_module
from repro.service import (
    CheckpointError,
    CheckpointStore,
    GraphSession,
    load_session,
    save_session,
)
from repro.sketch.serialize import pack_ints, unpack_ints
from repro.stream import mixed_workload_stream

NUM_VERTICES = 12
SEED = 1009
CHUNK = 60

SLOTS_OFF = dict(enable_spanner=False, enable_sparsifier=False)


def _chunks(tokens):
    return [tokens[i : i + CHUNK] for i in range(0, len(tokens), CHUNK)]


@pytest.fixture(scope="module")
def stream_chunks():
    return _chunks(list(mixed_workload_stream(NUM_VERTICES, 360, SEED)))


@pytest.fixture(scope="module")
def baseline(stream_chunks):
    session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
    for chunk in stream_chunks:
        session.ingest_batch(chunk)
    return session


def _final_bytes(session, tmp_path, name):
    path = tmp_path / name
    save_session(session, path)
    return path.read_bytes()


class TestCrashSweep:
    def test_crash_at_every_save_epoch_restores_bit_identically(
        self, stream_chunks, baseline, tmp_path
    ):
        # Save after every chunk (keep_last covers all of them), then
        # "crash" at each epoch in turn: restore that checkpoint,
        # replay the tail, and demand byte-identical serialized state.
        store = CheckpointStore(tmp_path / "ckpt", keep_last=len(stream_chunks) + 1)
        writer = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        saved = []
        for chunk in stream_chunks:
            writer.ingest_batch(chunk)
            saved.append(store.save(writer))
        expected_answers = baseline.snapshot_answers()
        expected_bytes = _final_bytes(baseline, tmp_path, "expected.bin")
        assert len(saved) == len(stream_chunks)

        for path in saved:
            resumed = load_session(path)
            replayed = 0
            for chunk in stream_chunks:
                if replayed >= resumed.updates_ingested:
                    resumed.ingest_batch(chunk)
                replayed += len(chunk)
            assert resumed.updates_ingested == baseline.updates_ingested
            assert resumed.snapshot_answers() == expected_answers
            assert (
                _final_bytes(resumed, tmp_path, "resumed.bin") == expected_bytes
            ), f"divergence after restoring {path.name}"


class TestFallbackChain:
    def _three_checkpoints(self, stream_chunks, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=10)
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        for chunk in stream_chunks[:3]:
            session.ingest_batch(chunk)
            store.save(session)
        return store

    def test_load_latest_walks_past_corrupt_files(self, stream_chunks, tmp_path):
        store = self._three_checkpoints(stream_chunks, tmp_path)
        newest_first = store.checkpoints()[::-1]
        apply_corruption(
            newest_first[0], faults.FaultSpec("checkpoint-truncate", drop_bytes=9)
        )
        apply_corruption(
            newest_first[1], faults.FaultSpec("checkpoint-bitflip", offset=-4)
        )
        session = store.load_latest()
        assert session.checkpoint_fallbacks == 2
        assert session.updates_ingested == len(stream_chunks[0])
        assert session.stats().checkpoint_fallbacks == 2

    def test_all_corrupt_raises_chained_error(self, stream_chunks, tmp_path):
        store = self._three_checkpoints(stream_chunks, tmp_path)
        for path in store.checkpoints():
            apply_corruption(path, faults.FaultSpec("checkpoint-truncate"))
        with pytest.raises(CheckpointError, match="are corrupt") as excinfo:
            store.load_latest()
        # The chain points at the newest failure, and the message walks
        # the whole fallback history.
        assert excinfo.value.__cause__ is not None
        assert str(excinfo.value).count("ckpt-") >= 3

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointStore(tmp_path / "nothing").load_latest()

    def test_keep_last_prunes_oldest(self, stream_chunks, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=2)
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        for chunk in stream_chunks:
            session.ingest_batch(chunk)
            store.save(session)
        remaining = store.checkpoints()
        assert len(remaining) == 2
        assert remaining[-1] == store.path_for(session.epoch)


class TestCleanFailure:
    """Satellite: error paths leave no temp state behind."""

    def test_torn_write_cleans_temp_and_preserves_previous(
        self, stream_chunks, tmp_path
    ):
        store = CheckpointStore(tmp_path / "ckpt", keep_last=10)
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        first = store.save(session)
        intact = first.read_bytes()

        session.ingest_batch(stream_chunks[1])
        with faults.inject(FaultPlan.parse("io-error@write=0:at_byte=48")):
            with pytest.raises(CheckpointError, match="injected I/O error"):
                store.save(session)
            # No temp file, no half-written target; the previous
            # checkpoint is byte-for-byte untouched.
            assert store.checkpoints() == [first]
            assert list((tmp_path / "ckpt").iterdir()) == [first]
            assert first.read_bytes() == intact
            # The next save ordinal is clean and succeeds.
            second = store.save(session)
        assert load_session(second).updates_ingested == session.updates_ingested

    def test_truncated_file_raises_pointed_error(self, stream_chunks, tmp_path):
        path = tmp_path / "state.bin"
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        save_session(session, path)
        apply_corruption(path, faults.FaultSpec("checkpoint-truncate", drop_bytes=5))
        with pytest.raises(CheckpointError, match="truncated"):
            load_session(path)
        # The failed load created nothing next to the file.
        assert list(tmp_path.iterdir()) == [path]

    def test_bitflip_fails_crc_not_garbage_decode(self, stream_chunks, tmp_path):
        path = tmp_path / "state.bin"
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        save_session(session, path)
        apply_corruption(path, faults.FaultSpec("checkpoint-bitflip", offset=-4))
        with pytest.raises(CheckpointError, match="CRC"):
            load_session(path)

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_session(tmp_path / "absent.bin")


def _forge_payload(path, edit) -> None:
    """Rewrite the checkpoint's payload ints through ``edit`` and reframe
    it with a *valid* CRC, so only the loader's consistency checks stand
    between the forged contents and the session."""
    data = path.read_bytes()
    frame = checkpoint_module._FRAME
    header_len, _ = frame.unpack_from(data, len(checkpoint_module.MAGIC))
    payload_at = len(checkpoint_module.MAGIC) + frame.size + header_len
    payload_len, _ = frame.unpack_from(data, payload_at)
    start = payload_at + frame.size
    values = unpack_ints(data[start : start + payload_len])
    edit(values)
    path.write_bytes(data[:payload_at] + b"".join(checkpoint_module._frame(pack_ints(values))))


def _ledger_end(values) -> int:
    """Index of the connectivity block's length prefix."""
    return 1 + 4 * values[0]


def _set(offset_of, value):
    def edit(values):
        values[offset_of(values)] = value

    return edit


#: name -> payload edit.  The connectivity block follows the ledger:
#: ``[length, count, row id, cells ...]`` for its first stack.
FORGERIES = {
    "block-length-past-end": lambda values: values.__setitem__(
        _ledger_end(values), len(values)
    ),
    "row-count-past-end": lambda values: values.__setitem__(
        _ledger_end(values) + 1, values[_ledger_end(values) + 1] + 10**6
    ),
    "row-id-past-universe": _set(lambda values: _ledger_end(values) + 2, 10**9),
    "negative-row-id": _set(lambda values: _ledger_end(values) + 2, -1),
    "row-id-outside-int64": _set(lambda values: _ledger_end(values) + 2, 2**64),
    "block-length-outside-int64": _set(_ledger_end, 2**64),
    "ledger-vertex-outside-universe": _set(lambda values: 1, 10**9),
    "ledger-multiplicity-outside-int64": _set(lambda values: 3, 2**64),
    "ledger-weight-bits-outside-uint64": _set(lambda values: 4, 2**70),
}


class TestForgedPayloads:
    """CRC-valid but inconsistent payloads fail as CheckpointError."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_inconsistent_payload_raises_checkpoint_error(
        self, stream_chunks, tmp_path, lazy, forgery
    ):
        space = VertexSpace.sparse(NUM_VERTICES) if lazy else NUM_VERTICES
        session = GraphSession(space, SEED, **SLOTS_OFF)
        for chunk in stream_chunks[:2]:
            session.ingest_batch(chunk)
        path = tmp_path / "forged.bin"
        save_session(session, path)
        _forge_payload(path, FORGERIES[forgery])
        with pytest.raises(CheckpointError, match="inconsistent payload"):
            load_session(path)

    def test_unforged_round_trip_still_loads(self, stream_chunks, tmp_path):
        session = GraphSession(VertexSpace.sparse(NUM_VERTICES), SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        path = tmp_path / "plain.bin"
        save_session(session, path)
        _forge_payload(path, lambda values: None)
        assert load_session(path).updates_ingested == session.updates_ingested


class TestDegradedQueries:
    def test_decode_failure_degrades_without_poisoning_cache(self, stream_chunks):
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        with faults.inject(FaultPlan.parse("decode-fail@query=0")):
            degraded = session.query("forest")
            assert not degraded.ok
            assert degraded.confidence == "degraded"
            assert degraded.value is None
            # Same epoch, next decode ordinal: the failure was not
            # cached, so the retry succeeds with a whp answer.
            retried = session.query("forest")
            assert retried.ok
            assert retried.confidence == "whp"
            assert retried.value is not None
        assert session.degraded_queries == 1
        assert session.stats().degraded_queries == 1

    def test_unknown_query_kind_still_raises(self, stream_chunks):
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        with pytest.raises(ValueError, match="unknown query kind"):
            session.query("page-rank")


class TestRotation:
    def test_rotation_survives_checkpoint_round_trip(self, stream_chunks, tmp_path):
        session = GraphSession(NUM_VERTICES, SEED, **SLOTS_OFF)
        session.ingest_batch(stream_chunks[0])
        components = session.snapshot_answers()["components"]
        assert session.rotate_sketches() == 1
        # Rotation re-derives hash families but rebuilds from the
        # exact ledger: the component partition is preserved.
        assert session.snapshot_answers()["components"] == components

        path = tmp_path / "rotated.bin"
        save_session(session, path)
        restored = load_session(path)
        assert restored.rotation == 1
        assert _final_bytes(restored, tmp_path, "again.bin") == path.read_bytes()
