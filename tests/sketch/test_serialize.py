"""Tests for sketch-state serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agm import AgmSketch
from repro.sketch import (
    CountSketch,
    DistinctElementsSketch,
    L0Sampler,
    LinearHashTable,
    NeighborhoodHashTable,
    OneSparseDetector,
    SparseRecoverySketch,
    deserialize_sketch,
    pack_ints,
    serialize_sketch,
    serialized_size_bytes,
    unpack_ints,
)
from repro.sketch import serialize as serialize_module
from repro.sketch.serialize import _pack_scalar, _unpack_scalar, int_array, unpack_array


class TestVarintCodec:
    def test_round_trip_basic(self):
        values = [0, 1, -1, 127, 128, -128, 10**6, -(10**6)]
        assert unpack_ints(pack_ints(values)) == values

    def test_round_trip_huge_values(self):
        values = [2**61 - 1, -(2**61), 2**200, -(2**200) + 1]
        assert unpack_ints(pack_ints(values)) == values

    def test_empty(self):
        assert pack_ints([]) == b""
        assert unpack_ints(b"") == []

    def test_zero_is_one_byte(self):
        assert len(pack_ints([0])) == 1

    def test_zeros_compress(self):
        mostly_zero = [0] * 1000 + [12345]
        packed = pack_ints(mostly_zero)
        assert len(packed) < 1010

    def test_truncated_stream_rejected(self):
        packed = pack_ints([10**9])
        with pytest.raises(ValueError):
            unpack_ints(packed[:-1] + bytes([packed[-1] | 0x80]))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(min_value=-(2**80), max_value=2**80)))
    def test_round_trip_property(self, values):
        assert unpack_ints(pack_ints(values)) == values


#: The int64 edges of the array codec's zigzag (uint64 wraparound).
INT64_EDGES = [0, 1, -1, 2, -2, 2**62, -(2**62), 2**63 - 1, -(2**63)]

#: Values only the scalar path can carry.
WIDE = [2**64, -(2**64), 2**100, -(2**100)]


class TestArrayCodec:
    """The numpy codec must be byte-identical to the scalar reference."""

    def test_int64_edges(self):
        packed = _pack_scalar(INT64_EDGES)
        assert pack_ints(INT64_EDGES) == packed
        assert pack_ints(np.array(INT64_EDGES, dtype=np.int64)) == packed
        decoded = unpack_array(packed)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == INT64_EDGES
        assert unpack_ints(packed) == INT64_EDGES

    def test_values_outside_int64_take_the_exact_path(self):
        values = INT64_EDGES + WIDE + [7]
        packed = _pack_scalar(values)
        assert pack_ints(values) == packed
        assert unpack_ints(packed) == values
        decoded = unpack_array(packed)
        assert decoded.dtype == object
        assert decoded.tolist() == values
        assert int_array(values).dtype == object

    def test_empty(self):
        assert pack_ints(np.zeros(0, dtype=np.int64)) == b""
        assert unpack_array(b"").dtype == np.int64
        assert unpack_array(b"").size == 0

    def test_unsigned_and_narrow_arrays(self):
        assert pack_ints(np.array([3, 2**63], dtype=np.uint64)) == _pack_scalar([3, 2**63])
        assert pack_ints(np.array([-5, 7], dtype=np.int8)) == _pack_scalar([-5, 7])

    @pytest.mark.parametrize("tail", [[], [2**64]], ids=["int64", "wide-tail"])
    def test_long_sequences_cross_chunk_boundaries(self, tail):
        rng = np.random.default_rng(11)
        size = 3 * serialize_module._CHUNK_VALUES + 17
        magnitudes = rng.choice([2**6, 2**20, 2**62], size=size)
        values = (rng.integers(-(2**62), 2**62, size=size) % magnitudes).tolist()
        values = values + INT64_EDGES + tail
        packed = _pack_scalar(values)
        assert len(packed) > 2 * serialize_module._CHUNK_BYTES
        assert pack_ints(values) == packed
        assert unpack_ints(packed) == values

    def test_overlong_varint_decodes_like_the_scalar_loop(self):
        overlong_zero = b"\x80" * 11 + b"\x00"
        assert unpack_ints(overlong_zero) == _unpack_scalar(overlong_zero) == [0]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.integers(min_value=-300, max_value=300),
                st.sampled_from(INT64_EDGES + WIDE),
                st.integers(min_value=-(2**70), max_value=2**70),
            )
        )
    )
    def test_byte_identical_to_scalar_reference(self, values):
        packed = _pack_scalar(values)
        assert pack_ints(values) == packed
        assert unpack_ints(packed) == values
        assert unpack_array(packed).tolist() == values
        if all(-(2**63) <= value < 2**63 for value in values):
            assert pack_ints(np.array(values, dtype=np.int64)) == packed

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.sampled_from(WIDE),
            ),
            min_size=1,
        ),
        tail=st.integers(min_value=0, max_value=0x7F),
    )
    def test_truncated_streams_raise(self, values, tail):
        packed = _pack_scalar(values)
        # A dangling continuation byte, and (for a multi-byte final
        # varint) the stream cut one byte short.
        cuts = [packed + bytes([0x80 | tail])]
        if len(packed) > 1 and packed[-2] & 0x80:
            cuts.append(packed[:-1])
        for truncated in cuts:
            with pytest.raises(ValueError, match="truncated varint stream"):
                unpack_ints(truncated)
            with pytest.raises(ValueError, match="truncated varint stream"):
                unpack_array(truncated)


class TestStateInts:
    def test_one_sparse_detector(self):
        detector = OneSparseDetector(100, seed=1)
        detector.update(5, 3)
        state = detector.state_ints()
        assert len(state) == 3
        clone = OneSparseDetector(100, seed=1)
        clone.load_state_vector(tuple(state))
        assert clone.decode().index == 5

    def test_sparse_recovery_state_reflects_updates(self):
        sketch = SparseRecoverySketch(1000, 4, seed=2)
        empty_state = sketch.state_ints()
        assert all(v == 0 for v in empty_state)
        sketch.update(10, 1)
        assert any(v != 0 for v in sketch.state_ints())

    def test_serialized_size_grows_with_content(self):
        sketch = SparseRecoverySketch(1000, 8, seed=3)
        empty_size = serialized_size_bytes(sketch)
        for i in range(8):
            sketch.update(i * 101, 1)
        assert serialized_size_bytes(sketch) > empty_size

    def test_all_sketch_types_serializable(self):
        sketches = [
            SparseRecoverySketch(100, 4, seed=4),
            L0Sampler(100, seed=5),
            DistinctElementsSketch(100, seed=6),
            CountSketch(100, 4, seed=7),
            AgmSketch(10, seed=8),
            LinearHashTable(16, 3, 4, seed=9),
            NeighborhoodHashTable(16, 4, seed=10),
        ]
        for sketch in sketches:
            size = serialized_size_bytes(sketch)
            assert size > 0
            assert unpack_ints(pack_ints(sketch.state_ints())) == list(sketch.state_ints())

    def test_hash_tables_expose_state_ints(self):
        # Regression: the tables advertised combine() but state_ints()
        # raised AttributeError, breaking serialized_size_bytes on them.
        table = LinearHashTable(key_domain=8, payload_len=2, capacity=2, seed=1)
        table.add_payload(3, [2**61 - 1, -(2**61)])
        assert serialized_size_bytes(table) > 0
        neighborhood = NeighborhoodHashTable(8, 2, seed=2)
        neighborhood.add_neighbor(key=3, neighbor=5, delta=1)
        assert serialized_size_bytes(neighborhood) > 0

    def test_from_state_ints_rejects_wrong_length(self):
        detector = OneSparseDetector(100, seed=1)
        with pytest.raises(ValueError):
            detector.from_state_ints([1, 2])
        sketch = SparseRecoverySketch(100, 4, seed=2)
        with pytest.raises(ValueError):
            sketch.from_state_ints([0])

    def test_additive_builder_message(self):
        from repro.core import AdditiveSpannerBuilder
        from repro.stream.updates import EdgeUpdate

        builder = AdditiveSpannerBuilder(16, 2, seed=9)
        empty_message = serialized_size_bytes(builder)
        builder.begin_pass(0)
        for u in range(15):
            builder.process(EdgeUpdate(u, u + 1, +1), 0)
        loaded_message = serialized_size_bytes(builder)
        assert loaded_message > empty_message


# Deltas spanning the regimes the protocol must survive: zero-adjacent,
# negative, int64-boundary, and well past 2^64.
_EXTREME_DELTAS = [1, -1, 3, -(2**63), 2**64 + 7, -(2**70 + 11), 2**61 - 1]


def _round_trip(sketch, fresh):
    """serialize -> deserialize into a fresh instance -> compare state."""
    blob = serialize_sketch(sketch)
    clone = deserialize_sketch(fresh, blob)
    assert list(clone.state_ints()) == list(sketch.state_ints())
    return clone


class TestFromStateInts:
    """from_state_ints is the exact inverse of state_ints for every
    sketch class, bigint cells included."""

    def test_one_sparse_detector(self):
        detector = OneSparseDetector(1000, seed=1)
        for i, delta in enumerate(_EXTREME_DELTAS):
            detector.update(i * 99, delta)
        clone = _round_trip(detector, OneSparseDetector(1000, seed=1))
        assert clone.decode() == detector.decode()

    def test_sparse_recovery_including_bigints(self):
        sketch = SparseRecoverySketch(1000, 8, seed=2)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 101, delta)
        clone = _round_trip(sketch, SparseRecoverySketch(1000, 8, seed=2))
        assert clone.decode() == sketch.decode()

    def test_count_sketch(self):
        sketch = CountSketch(1000, 4, seed=3)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 37, delta)
        clone = _round_trip(sketch, CountSketch(1000, 4, seed=3))
        assert clone.estimate(0) == sketch.estimate(0)

    def test_distinct_elements(self):
        sketch = DistinctElementsSketch(1000, seed=4)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sketch.update(i * 53, delta)
        clone = _round_trip(sketch, DistinctElementsSketch(1000, seed=4))
        assert clone.estimate() == sketch.estimate()

    def test_l0_sampler(self):
        sampler = L0Sampler(1000, seed=5)
        for i, delta in enumerate(_EXTREME_DELTAS):
            sampler.update(i * 71, delta)
        clone = _round_trip(sampler, L0Sampler(1000, seed=5))
        assert clone.sample() == sampler.sample()

    def test_linear_hash_table(self):
        table = LinearHashTable(key_domain=32, payload_len=3, capacity=4, seed=6)
        table.add_payload(7, [2**61 - 1, -(2**64), 5])
        table.add_payload(21, [1, 0, -(2**61)])
        clone = _round_trip(table, LinearHashTable(32, 3, 4, seed=6))
        assert clone.decode() == table.decode()

    def test_neighborhood_hash_table(self):
        table = NeighborhoodHashTable(32, 4, seed=7)
        table.add_neighbor(key=3, neighbor=11, delta=1)
        table.add_neighbor(key=9, neighbor=27, delta=1)
        clone = _round_trip(table, NeighborhoodHashTable(32, 4, seed=7))
        decoded, expected = clone.decode_neighbors(), table.decode_neighbors()
        assert decoded is not None and expected is not None
        assert decoded.keys() == expected.keys()

    def test_agm_sketch(self):
        sketch = AgmSketch(12, seed=8)
        sketch.update(0, 5, 1)
        sketch.update(5, 11, 1)
        sketch.update(0, 5, -1)
        clone = _round_trip(sketch, AgmSketch(12, seed=8))
        assert clone.spanning_forest() == sketch.spanning_forest()

    @settings(max_examples=40, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=499),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=30,
        )
    )
    def test_round_trip_property_sparse_recovery(self, updates):
        sketch = SparseRecoverySketch(500, 4, seed="prop")
        for index, delta in updates:
            sketch.update(index, delta)
        state = sketch.state_ints()
        assert unpack_ints(pack_ints(state)) == state
        clone = SparseRecoverySketch(500, 4, seed="prop").from_state_ints(state)
        assert clone.state_ints() == state

    @settings(max_examples=25, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=199),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property_l0_sampler(self, updates):
        sampler = L0Sampler(200, seed="prop")
        for index, delta in updates:
            sampler.update(index, delta)
        blob = serialize_sketch(sampler)
        clone = deserialize_sketch(L0Sampler(200, seed="prop"), blob)
        assert clone.state_ints() == sampler.state_ints()
