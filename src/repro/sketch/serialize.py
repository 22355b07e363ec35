"""Compact serialization of sketch state — the wire protocol.

Two places genuinely need bytes rather than word counts:

* the Theorem 4 communication game — Alice's *message* is the
  algorithm's state, and its length in bits is the quantity the lower
  bound speaks about;
* the distributed setting — servers ship sketch states to a coordinator
  (:mod:`repro.stream.distributed`), and the per-round message lengths
  are exactly what the paper's simultaneous-communication framing
  (``S x = S x^1 + ... + S x^s``) charges for.

Every sketch in the repository — including the linear hash tables of
Algorithm 2 — exposes the same two-sided protocol:

* ``state_ints()`` returns a flat integer sequence that fully determines
  the sketch's *dynamic* state (hash seeds are excluded: they are shared
  knowledge derived from the public seed, just as the paper's protocols
  assume shared randomness);
* ``from_state_ints(values)`` is its exact inverse — called on a
  freshly built same-seed/same-shape instance it overwrites the dynamic
  state in place, so ``fresh.from_state_ints(old.state_ints())``
  round-trips bit-for-bit, arbitrary-precision cells included.

This module packs such sequences with ZigZag + varint encoding — small
magnitudes (the common case: empty cells are 0) cost one byte, and
arbitrarily large magnitudes (the ``~2^61``-sized payload cells of the
linear hash tables) are encoded exactly.  :func:`serialize_sketch` /
:func:`deserialize_sketch` bundle the two halves into the byte-level
round trip the distributed runner ships over process boundaries.

The codec is array-native: any sequence whose values all fit ``int64``
(every columnar stack, the AGM wire, a whole session checkpoint) is
zigzagged in ``uint64`` with wraparound and LEB128-encoded/decoded by a
handful of numpy passes — one per output byte position, over the
shrinking set of values that still have bytes left.  Only a sequence
holding a value outside ``int64`` (the pass-2 tables' big-int payload
cells) takes the scalar per-value loop.  Both paths emit identical
bytes, so the choice is invisible on the wire.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "int_array",
    "pack_ints",
    "unpack_ints",
    "unpack_array",
    "serialized_size_bytes",
    "serialize_sketch",
    "deserialize_sketch",
]

_INT64_MAX = (1 << 63) - 1

#: ``2^7, 2^14, ..., 2^63``: a zigzagged value ``z`` takes one varint
#: byte plus one per threshold ``<= z`` (so at most ten bytes).
_VARINT_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)

#: Values per encoder slice / bytes per decoder window.
_CHUNK_VALUES = 1 << 16
_CHUNK_BYTES = 1 << 17

_LOW7 = np.uint64(0x7F)
_SEVEN = np.uint64(7)
_ONE = np.uint64(1)


def _wide_zigzag(value: int) -> int:
    # Arbitrary-precision zigzag: non-negative -> even, negative -> odd.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _zigzag_decode(encoded: int) -> int:
    if encoded & 1:
        return -((encoded + 1) >> 1)
    return encoded >> 1


def _pack_scalar(values: Iterable[int]) -> bytes:
    """Per-value reference encoder (any Python ints)."""
    chunks = bytearray()
    for value in values:
        encoded = _wide_zigzag(value)
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                chunks.append(byte | 0x80)
            else:
                chunks.append(byte)
                break
    return bytes(chunks)


def _unpack_scalar(data: bytes) -> list[int]:
    """Per-byte reference decoder (any magnitudes)."""
    values = []
    current = 0
    shift = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(_zigzag_decode(current))
            current = 0
            shift = 0
    if shift != 0:
        raise ValueError("truncated varint stream")
    return values


def int_array(values) -> np.ndarray:
    """``values`` as a 1-D ``int64`` array (returned as is when it
    already is one), or as an ``object`` array of Python ints when some
    value lies outside ``int64`` — the exact fallback every array-native
    reader and :func:`pack_ints` accept."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        if values.dtype.kind == "b" or (
            values.dtype.kind in "iu"
            and (values.size == 0 or int(values.max()) <= _INT64_MAX)
        ):
            return values.astype(np.int64)
        values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(value) for value in values], dtype=object)


def _encode_chunk(values: np.ndarray) -> bytes:
    """Zigzag + LEB128 of one ``int64`` chunk, byte-identical to
    :func:`_pack_scalar`."""
    # (v << 1) ^ (v >> 63) in uint64 with wraparound: the whole int64
    # range maps onto [0, 2^64), so values >= 2^62 stay on this path.
    zigzag = (values.view(np.uint64) << _ONE) ^ (values >> np.int64(63)).view(np.uint64)
    remaining = np.searchsorted(_VARINT_THRESHOLDS, zigzag, side="right") + 1
    ends = np.cumsum(remaining)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    position = ends - remaining
    while True:
        more = remaining > 1
        out[position] = (zigzag & _LOW7).astype(np.uint8) | (more.astype(np.uint8) << 7)
        carry = np.flatnonzero(more)
        if carry.size == 0:
            return out.tobytes()
        zigzag = zigzag[carry] >> _SEVEN
        position = position[carry] + 1
        remaining = remaining[carry] - 1


def _decode_chunk(buffer: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Zigzag values of the whole varints in ``buffer`` (``ends``: the
    index of each one's final byte), or ``None`` when one holds a value
    outside ``int64``."""
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    longest = int(lengths.max())
    # Ten bytes carry 70 bits; only a final byte of 0 or 1 keeps the
    # zigzag value inside uint64 (hence the value inside int64).
    if longest > 10 or (longest == 10 and int(buffer[ends[lengths == 10]].max()) > 1):
        return None
    zigzag = (buffer[starts] & 0x7F).astype(np.uint64)
    pending = np.flatnonzero(lengths > 1)
    for k in range(1, longest):
        byte = (buffer[starts[pending] + k] & 0x7F).astype(np.uint64)
        zigzag[pending] |= byte << np.uint64(7 * k)
        pending = pending[lengths[pending] > k + 1]
    return zigzag


def _encode_int64(values: np.ndarray) -> bytes:
    """:func:`_encode_chunk` over bounded slices, so the temporaries stay
    a few MB whatever the sequence length."""
    return b"".join(
        _encode_chunk(values[start : start + _CHUNK_VALUES])
        for start in range(0, values.size, _CHUNK_VALUES)
    )


def _decode_int64(data) -> np.ndarray | None:
    """Inverse of :func:`_encode_int64`; ``None`` when some varint
    holds a value outside ``int64`` (the caller falls back to
    :func:`_unpack_scalar`).  Decodes bounded byte windows cut at
    varint boundaries straight into the preallocated result."""
    buffer = np.frombuffer(data, dtype=np.uint8)
    if buffer.size and buffer[-1] & 0x80:
        raise ValueError("truncated varint stream")
    out = np.empty(int(np.count_nonzero(buffer < 0x80)), dtype=np.int64)
    begin = done = 0
    while begin < buffer.size:
        window = buffer[begin : begin + _CHUNK_BYTES]
        ends = np.flatnonzero(window < 0x80)
        if ends.size == 0:  # one varint longer than a window
            return None
        window = window[: int(ends[-1]) + 1]
        zigzag = _decode_chunk(window, ends)
        if zigzag is None:
            return None
        out[done : done + ends.size] = (
            (zigzag >> _ONE) ^ np.negative(zigzag & _ONE)
        ).view(np.int64)
        done += ends.size
        begin += window.size
    return out


def pack_ints(values: Iterable[int]) -> bytes:
    """Encode a sequence of (possibly huge, possibly negative) ints.

    Accepts any iterable of ints, including numpy integer arrays; see
    :func:`int_array` for which sequences take the vectorized path.
    """
    array = int_array(values)
    if array.dtype == np.int64:
        return _encode_int64(array)
    return _pack_scalar(array.tolist())


def unpack_array(data: bytes) -> np.ndarray:
    """Decode a :func:`pack_ints` stream into an array: ``int64`` when
    every value fits, else an ``object`` array of exact Python ints.

    Raises ``ValueError("truncated varint stream")`` when the last
    varint is cut off.
    """
    array = _decode_int64(data)
    if array is None:
        return np.array(_unpack_scalar(data), dtype=object)
    return array


def unpack_ints(data: bytes) -> list[int]:
    """Inverse of :func:`pack_ints`, as a list of Python ints."""
    array = _decode_int64(data)
    if array is None:
        return _unpack_scalar(data)
    return array.tolist()


def serialized_size_bytes(sketch) -> int:
    """Bytes needed to ship ``sketch``'s dynamic state.

    ``sketch`` must expose ``state_ints()``.
    """
    return len(serialize_sketch(sketch))


def serialize_sketch(sketch) -> bytes:
    """The sketch's dynamic state as a wire message.

    ``sketch`` must expose ``state_ints()``.  This is what a server in
    the distributed setting sends the coordinator — the message length
    is the communication the model charges for.
    """
    return pack_ints(sketch.state_ints())


def deserialize_sketch(sketch, data: bytes):
    """Load a :func:`serialize_sketch` message into ``sketch``.

    ``sketch`` must be a freshly built instance with the same seed and
    shape as the serialized one and must expose ``from_state_ints()``.
    Returns ``sketch`` (with its dynamic state overwritten) so the call
    composes: ``deserialize_sketch(factory(), blob).decode()``.
    """
    sketch.from_state_ints(unpack_ints(data))
    return sketch
