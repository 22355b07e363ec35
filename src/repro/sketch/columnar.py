"""Columnar sketch stacks: many sketches, one contiguous state array.

The batch engine (:mod:`repro.sketch.batched`) vectorizes *within* one
sketch, but the graph algorithms fan a stream chunk out across ``n x
O(log n)`` AGM vertex sketches or ``(endpoint, r, j)`` spanner stacks
before any single sketch sees a vectorizable sub-batch — so the
per-sketch engine mostly falls back to its scalar loops.  The structural
fact that rescues vectorization is that those sketches are *same-seeded
stacks*: every vertex row of an AGM round hashes the same edge
coordinates with the same hash family.  This module stores such a stack
as one 2-D array (rows = sketches, columns = counter cells), evaluates
each chunk's polynomial hashes and fingerprint powers **once per
(coordinate, stack)**, and lands every row's contribution with a single
flattened ``(row, cell)`` scatter — bit-identical to updating each row's
standalone sketch (the property ``tests/sketch/test_columnar.py`` pins).

Two stack flavors:

:class:`SketchStack`
    ``num_rows`` same-shaped :class:`~repro.sketch.sparse_recovery.SparseRecoverySketch`
    states.  Rows may share one seed (AGM rounds, the spanner's
    ``(r, j)`` cluster stacks) — hashes are then evaluated once per
    coordinate and broadcast — or carry per-row seeds (the spanner's
    per-root cut sketches), in which case the gathered-coefficient
    kernels :func:`~repro.sketch.kernels.polyhash61_rows` /
    :func:`~repro.sketch.kernels.powmod61_bases` still evaluate the
    whole incidence list in one vectorized pass.

:class:`L0SamplerStack`
    ``num_rows`` same-seeded :class:`~repro.sketch.l0sampler.L0Sampler`
    states: one shared membership evaluation per coordinate routes every
    row's contribution to the right geometric levels, each level being a
    :class:`SketchStack`.

Lazy row materialization
------------------------
``lazy=True`` (what a sparse :class:`~repro.graph.vertex_space.VertexSpace`
selects) keeps ``num_rows`` purely *logical*: no per-row cell is
allocated until a row is first touched, so a stack over a ``10^7``-vertex
universe holds memory proportional to the vertices that actually appear
in the stream.  Hashes, seeds and the fingerprint base are functions of
the shared seed and the *logical* row index — never of materialization
order — so a lazy stack's touched rows are bit-identical to the same
rows of an eager stack fed the same updates, and the two storages are
freely combinable (``combine``/``merge_shard`` across mixed dense/lazy
operands).  Untouched rows read as exact zero states.

Exactness and interop
---------------------
Counter cells live in ``int64`` arrays guarded by a conservative running
bound (:attr:`SketchStack.cell_bound`) on any single cell's magnitude.
Before a batch could overflow, the bound is first *tightened* to the
actual maximum cell magnitude (huge-coordinate domains make the running
bound very conservative); only if the tightened bound still cannot admit
the batch does the stack *spill* to per-row scalar sketches and keep
exact Python-integer arithmetic from then on (state identical, just
slower).  Cross-row column sums (the Borůvka component reduction) are
computed with 32-bit limb splitting, so they are exact for any row count
even when per-cell magnitudes approach the ``int64`` guard — no sum can
silently wrap.

Rows materialize back into the existing sketch classes via
:meth:`SketchStack.row_sketch` / :meth:`L0SamplerStack.row_sampler`
(shared immutable hash families, copied cells), so every decode,
``clone()``, ``combine`` and ``state_ints`` contract is preserved on top
of the new storage — mixed scalar/columnar state stays summable.  The
sparse serialization helpers (:meth:`SketchStack.sparse_state_ints`)
ship ``(logical row id, cells)`` pairs for nonzero rows only, which is
what lets checkpoints and shard messages of dense and lazy engines
round-trip interchangeably.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.batched import max_abs_int64
from repro.sketch.kernels import (
    MASK32,
    addmod61,
    build_pow_table,
    mulmod61,
    polyhash61_rows,
    powmod61_bases,
    scatter_sum_mod61,
    stack_positions_terms,
    submod61,
)
from repro import obs
from repro.sketch.hashing import MERSENNE_61, KWiseHash, NestedSampler
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.serialize import int_array
from repro.sketch.sparse_recovery import (
    _BUCKET_HASH_INDEPENDENCE,
    SparseRecoverySketch,
)
from repro.util.rng import derive_seed

__all__ = ["SketchStack", "L0SamplerStack"]

#: Spill threshold for the running per-cell magnitude bound: while the
#: bound stays below this, every ``int64`` accumulation of one more
#: batch is provably exact (intermediates stay under ``2^62``).
_INT64_SAFE_BOUND = 1 << 61

#: Signed-int64 low-limb mask for the exact cross-row column sums.
_MASK32_I64 = np.int64((1 << 32) - 1)


def _colsum_mod61(selected: np.ndarray) -> np.ndarray:
    """Exact per-column ``sum mod p`` over a gathered row subset.

    ``selected`` is a ``uint64`` field-element matrix (the caller's
    already-gathered rows); the straight sum of even a handful of 61-bit
    values overflows ``uint64``, so the 32-bit limbs are accumulated
    separately (exact for up to ``2^31`` rows) and recombined mod ``p``
    — the column form of
    :func:`repro.sketch.kernels.scatter_sum_mod61`.
    """
    lo = np.sum(selected & MASK32, axis=0, dtype=np.uint64)
    hi = np.sum(selected >> np.uint64(32), axis=0, dtype=np.uint64)
    lo_red = np.remainder(lo, np.uint64(MERSENNE_61))
    hi_red = np.remainder(hi, np.uint64(MERSENNE_61))
    return addmod61(lo_red, mulmod61(hi_red, np.uint64((1 << 32) % MERSENNE_61)))


def _colsum_exact(selected: np.ndarray) -> list[int]:
    """Exact per-column signed sum of an ``int64`` matrix, as Python ints.

    A straight ``sum(axis=0)`` can wrap once per-cell magnitudes (up to
    the ``2^61`` guard) meet large row counts — the Borůvka component
    sums over huge-coordinate domains hit exactly that regime.  Summing
    the 32-bit limbs separately keeps every accumulator far inside
    ``int64`` (rows < ``2^31``), and the recombination in Python integers
    is exact for any magnitudes.
    """
    if selected.shape[0] == 0:
        return [0] * selected.shape[1]
    lo = np.sum(selected & _MASK32_I64, axis=0, dtype=np.int64)
    hi = np.sum(selected >> np.int64(32), axis=0, dtype=np.int64)
    return [(int(h) << 32) + int(l) for h, l in zip(hi, lo)]


class SketchStack:
    """Columnar state of ``num_rows`` sparse-recovery sketches.

    Parameters
    ----------
    num_rows:
        Number of stacked sketches (AGM: vertices; spanner cluster
        stacks: vertices; cut stacks: terminal roots).  With
        ``lazy=True`` this is a purely logical universe size.
    domain_size, budget, rows, bucket_factor:
        Per-row sketch shape, exactly as
        :class:`~repro.sketch.sparse_recovery.SparseRecoverySketch`.
    seed:
        One shared randomness name (all rows identically seeded, hence
        summable across rows — the AGM requirement), **or** a list of
        ``num_rows`` per-row seeds for heterogeneous stacks.
    lazy:
        Materialize row storage on first touch instead of allocating
        ``num_rows x cells`` eagerly.  Requires a shared seed (per-row
        seed lists are inherently O(num_rows) state).  Touched rows are
        bit-identical to the same rows of an eager stack.
    """

    __slots__ = (
        "num_rows",
        "domain_size",
        "budget",
        "rows",
        "buckets",
        "cells",
        "shared_seed",
        "lazy",
        "_seed_key",
        "_seed_keys",
        "_z",
        "_zs",
        "_hash_objs",
        "_coeff_mats",
        "_totals",
        "_index_sums",
        "_fingerprints",
        "_slot_of",
        "_slot_rows",
        "_sorted_rows",
        "_sorted_slots",
        "_pow_table",
        "_bucket_coeffs",
        "_bound",
        "_spilled",
    )

    def __init__(
        self,
        num_rows: int,
        domain_size: int,
        budget: int,
        seed,
        rows: int = 4,
        bucket_factor: float = 2.0,
        lazy: bool = False,
    ):
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        template = SparseRecoverySketch(
            domain_size,
            budget,
            seed if not isinstance(seed, (list, tuple)) else seed[0],
            rows=rows,
            bucket_factor=bucket_factor,
        )
        self.num_rows = num_rows
        self.domain_size = domain_size
        self.budget = budget
        self.rows = rows
        self.buckets = template.buckets
        self.cells = rows * self.buckets
        self.lazy = bool(lazy)
        if isinstance(seed, (list, tuple)):
            if len(seed) != num_rows:
                raise ValueError(
                    f"need one seed per row: {num_rows} rows, {len(seed)} seeds"
                )
            if self.lazy:
                raise ValueError("lazy stacks require a shared seed")
            self.shared_seed = False
            self._seed_key = None
            self._z = None
            self._seed_keys = [
                derive_seed(s, "sparse-recovery", domain_size, budget, rows)
                for s in seed
            ]
            self._hash_objs = [
                [
                    KWiseHash.shared(
                        _BUCKET_HASH_INDEPENDENCE, derive_seed(key, "row", r)
                    )
                    for r in range(rows)
                ]
                for key in self._seed_keys
            ]
            self._zs = np.array(
                [1 + key % (MERSENNE_61 - 1) for key in self._seed_keys],
                dtype=np.uint64,
            )
            # One (num_rows, k) coefficient matrix per hash row, for the
            # gathered-coefficient vectorized evaluation.
            self._coeff_mats = [
                np.array(
                    [self._hash_objs[row][r].coefficients for row in range(num_rows)],
                    dtype=np.uint64,
                )
                for r in range(rows)
            ]
        else:
            self.shared_seed = True
            self._seed_key = template._seed_key
            self._seed_keys = None
            self._z = int(template._z)
            self._zs = None
            self._hash_objs = template._row_hashes  # d shared hashes
            self._coeff_mats = None
        stored = 0 if self.lazy else num_rows
        self._totals = np.zeros((stored, self.cells), dtype=np.int64)
        self._index_sums = np.zeros((stored, self.cells), dtype=np.int64)
        self._fingerprints = np.zeros((stored, self.cells), dtype=np.uint64)
        self._slot_of: dict[int, int] | None = {} if self.lazy else None
        self._slot_rows: list[int] | None = [] if self.lazy else None
        # Sorted snapshot of the intern map for vectorized batch lookup
        # (rebuilt lazily whenever rows were added since the last batch).
        self._sorted_rows: np.ndarray | None = None
        self._sorted_slots: np.ndarray | None = None
        # Derived, immutable batch-kernel caches (shared across clones):
        # the byte-windowed fingerprint power table and the stacked
        # bucket-hash coefficient matrix (shared-seed stacks only).
        self._pow_table: np.ndarray | None = None
        self._bucket_coeffs: np.ndarray | None = None
        self._bound = 0
        self._spilled: dict[int, SparseRecoverySketch] | None = None

    # ------------------------------------------------------------------
    # Seed / randomness plumbing (pure functions of the logical row)
    # ------------------------------------------------------------------

    def _seed_key_of(self, row: int) -> int:
        return self._seed_key if self.shared_seed else self._seed_keys[row]

    def _z_of(self, row: int) -> int:
        return self._z if self.shared_seed else int(self._zs[row])

    def _seed_signature(self):
        if self.shared_seed:
            return ("shared", self._seed_key, self.num_rows)
        return ("per-row", tuple(self._seed_keys))

    def _row_hashes_of(self, row: int) -> list[KWiseHash]:
        return self._hash_objs if self.shared_seed else self._hash_objs[row]

    # ------------------------------------------------------------------
    # Lazy slot management
    # ------------------------------------------------------------------

    def _grow_storage(self, needed: int) -> None:
        capacity = self._totals.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(8, 2 * capacity, needed)
        for name in ("_totals", "_index_sums", "_fingerprints"):
            old = getattr(self, name)
            grown = np.zeros((new_capacity, self.cells), dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, name, grown)

    def _slot(self, row: int, create: bool) -> int | None:
        """Storage row of logical ``row`` (dense: identity; lazy: interned)."""
        if not self.lazy:
            return row
        slot = self._slot_of.get(row)
        if slot is None and create:
            slot = len(self._slot_rows)
            self._grow_storage(slot + 1)
            self._slot_of[row] = slot
            self._slot_rows.append(row)
            self._sorted_rows = None  # lookup snapshot is stale
        return slot

    def _sorted_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted logical rows, their slots)`` of a lazy stack's intern
        map, rebuilt only when rows were interned since the last call."""
        if self._sorted_rows is None:
            rows = np.asarray(self._slot_rows, dtype=np.int64)
            order = np.argsort(rows, kind="stable")
            self._sorted_rows = rows[order]
            self._sorted_slots = order.astype(np.int64)
        return self._sorted_rows, self._sorted_slots

    def _slots_for_batch(self, unique_rows: np.ndarray) -> np.ndarray:
        """Vectorized intern of a batch's distinct logical rows.

        Known rows resolve through a sorted snapshot of the intern map
        with one ``searchsorted`` (the touched set saturates quickly, so
        steady-state chunks pay no per-row Python); only genuinely new
        rows take the scalar intern path.
        """
        known_rows, _ = self._sorted_snapshot()
        positions = np.searchsorted(known_rows, unique_rows)
        positions = np.minimum(positions, max(known_rows.size - 1, 0))
        if known_rows.size:
            hit = known_rows[positions] == unique_rows
        else:
            hit = np.zeros(unique_rows.shape, dtype=bool)
        slots = np.empty(unique_rows.shape, dtype=np.int64)
        slots[hit] = self._sorted_slots[positions[hit]]
        missing = np.flatnonzero(~hit)
        if missing.size:
            # Bulk-intern the new rows: one storage grow, one dict update,
            # and a sorted merge into the lookup snapshot.  ``unique_rows``
            # is sorted, so slot order matches the scalar intern path
            # bit-for-bit while growth-heavy streams (every batch touching
            # fresh rows) stay vectorized instead of paying a per-row
            # Python intern plus a full snapshot rebuild each chunk.
            new_rows = unique_rows[missing]
            base = len(self._slot_rows)
            new_slots = np.arange(base, base + missing.size, dtype=np.int64)
            self._grow_storage(base + missing.size)
            self._slot_of.update(
                zip(new_rows.tolist(), range(base, base + missing.size))
            )
            self._slot_rows.extend(new_rows.tolist())
            slots[missing] = new_slots
            insert_at = np.searchsorted(known_rows, new_rows)
            self._sorted_rows = np.insert(known_rows, insert_at, new_rows)
            self._sorted_slots = np.insert(self._sorted_slots, insert_at, new_slots)
        return slots

    def resident_rows(self) -> int:
        """Rows holding allocated state (lazy: touched; dense: all)."""
        if self._spilled is not None:
            return len(self._spilled)
        if self.lazy:
            return len(self._slot_rows)
        return self.num_rows

    def touched_row_ids(self) -> list[int]:
        """Sorted logical ids of resident rows (dense: every row)."""
        if self._spilled is not None:
            return sorted(self._spilled)
        if self.lazy:
            return sorted(self._slot_of)
        return list(range(self.num_rows))

    def state_digest(self, hasher) -> None:
        """Feed the stack's resident state into ``hasher`` canonically.

        Rows are visited in sorted logical order regardless of intern
        order, so two same-engine stacks holding the same cell values
        digest identically even when their streams materialized rows in
        different sequences.  At memory bandwidth (a sorted gather plus
        ``tobytes``), this is the cheap way to compare million-row
        states where :meth:`row_state_ints` per row would take minutes.
        Digests are only comparable between like engines: a dense stack
        hashes every row while a lazy one hashes the touched set, so an
        absent row and a resident all-zero row differ by design.
        """
        if self._spilled is not None:
            for row in sorted(self._spilled):
                sketch = self._spilled[row]
                hasher.update(np.int64(row).tobytes())
                hasher.update(np.asarray(sketch._totals, dtype=np.int64).tobytes())
                hasher.update(np.asarray(sketch._index_sums, dtype=np.int64).tobytes())
                hasher.update(
                    np.asarray(sketch._fingerprints, dtype=np.uint64).tobytes()
                )
            return
        if self.lazy:
            rows = np.asarray(self._slot_rows, dtype=np.int64)
            used = rows.size
            if used and np.any(rows[1:] < rows[:-1]):
                order = np.argsort(rows)
                hasher.update(rows[order].tobytes())
                for array in (self._totals, self._index_sums, self._fingerprints):
                    hasher.update(np.ascontiguousarray(array[:used][order]).tobytes())
                return
            # Intern order was already ascending (append-ordered streams):
            # hash the storage slices in place, no gather copy.
            hasher.update(rows.tobytes())
            for array in (self._totals, self._index_sums, self._fingerprints):
                hasher.update(np.ascontiguousarray(array[:used]).tobytes())
            return
        for array in (self._totals, self._index_sums, self._fingerprints):
            hasher.update(np.ascontiguousarray(array[: self.num_rows]).tobytes())

    # ------------------------------------------------------------------
    # Exactness bookkeeping
    # ------------------------------------------------------------------

    @property
    def cell_bound(self) -> int:
        """Conservative bound on any cell's ``|total|`` / ``|index sum|``."""
        return self._bound

    def is_spilled(self) -> bool:
        """Whether the stack fell back to per-row exact sketches."""
        return self._spilled is not None

    def _zero_row_sketch(self, row: int) -> SparseRecoverySketch:
        sketch = object.__new__(SparseRecoverySketch)
        sketch.domain_size = self.domain_size
        sketch.budget = self.budget
        sketch.rows = self.rows
        sketch.buckets = self.buckets
        sketch._seed_key = self._seed_key_of(row)
        sketch._z = self._z_of(row)
        sketch._row_hashes = list(self._row_hashes_of(row))
        sketch._totals = [0] * self.cells
        sketch._index_sums = [0] * self.cells
        sketch._fingerprints = [0] * self.cells
        return sketch

    def _spilled_sketch(self, row: int, create: bool) -> SparseRecoverySketch:
        sketch = self._spilled.get(row)
        if sketch is None:
            sketch = self._zero_row_sketch(row)
            if create:
                self._spilled[row] = sketch
        return sketch

    def _spill(self) -> None:
        """Convert to per-row scalar sketches (exact big-int fallback).

        Reached only when even the tightened bound says a future
        ``int64`` accumulation might not be provably exact — unreachable
        for ``±1``-delta graph streams at any realistic length, but the
        contract must hold for arbitrary linear payloads.  Lazy stacks
        spill only their materialized rows; untouched rows stay
        implicit zero states.
        """
        if self._spilled is not None:
            return
        obs.TRACER.count("sketch.spill")
        self._spilled = {
            row: self._materialize_row(row) for row in self.touched_row_ids()
        }
        self._totals = self._index_sums = self._fingerprints = None
        self._slot_of = self._slot_rows = None
        self._sorted_rows = self._sorted_slots = None

    def _tighten_bound(self) -> None:
        """Replace the running conservative bound by the actual maximum
        cell magnitude (cheap relative to how rarely it is needed)."""
        if self._spilled is not None:
            return
        used = len(self._slot_rows) if self.lazy else self.num_rows
        totals = self._totals[:used]
        index_sums = self._index_sums[:used]
        if totals.size == 0:
            self._bound = 0
            return
        self._bound = max(
            abs(int(totals.min())), abs(int(totals.max())),
            abs(int(index_sums.min())), abs(int(index_sums.max())),
        )

    def _admit(self, amount: int) -> bool:
        """Reserve headroom for a batch adding at most ``amount`` to any
        single cell.  Returns ``False`` after spilling (the caller must
        take the exact scalar route)."""
        if self._spilled is not None:
            return False
        if self._bound + amount < _INT64_SAFE_BOUND:
            self._bound += amount
            return True
        self._tighten_bound()
        if self._bound + amount < _INT64_SAFE_BOUND:
            self._bound += amount
            return True
        self._spill()
        return False

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_row(self, row: int, index: int, delta: int) -> None:
        """Scalar ``x_row[index] += delta`` — bit-identical to
        :meth:`SparseRecoverySketch.update` on the row's sketch."""
        if delta == 0:
            return
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of [0, {self.num_rows})")
        if not 0 <= index < self.domain_size:
            raise IndexError(f"index {index} out of domain [0, {self.domain_size})")
        if not self._admit(abs(delta) * max(index, 1)):
            self._spilled_sketch(row, create=True).update(index, delta)
            return
        slot = self._slot(row, create=True)
        z = self._z_of(row)
        power = pow(z, index, MERSENNE_61)
        fingerprint_delta = delta * power
        index_delta = delta * index
        hashes = self._row_hashes_of(row)
        for r, row_hash in enumerate(hashes):
            cell = r * self.buckets + row_hash.bucket(index, self.buckets)
            self._totals[slot, cell] += delta
            self._index_sums[slot, cell] += index_delta
            self._fingerprints[slot, cell] = np.uint64(
                (int(self._fingerprints[slot, cell]) + fingerprint_delta) % MERSENNE_61
            )

    def scatter(self, row_ids: np.ndarray, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a whole incidence batch: ``x_{row_ids[t]}[indices[t]] +=
        deltas[t]`` for every ``t``, in one vectorized pass.

        The polynomial bucket hashes and the fingerprint powers are
        evaluated once per incidence (once per *coordinate* when the
        caller deduplicates, which the graph layers do), shared across
        all affected rows; contributions land via one flattened
        ``(row, cell)`` scatter per counter plane.  Bit-identical to the
        equivalent sequence of per-row scalar updates — including under
        lazy storage, where only the touched rows materialize.
        """
        row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if not (row_ids.shape == indices.shape == deltas.shape) or row_ids.ndim != 1:
            raise ValueError("row_ids, indices, deltas must be 1-D of equal length")
        if row_ids.size == 0:
            return
        nonzero = deltas != 0
        if not nonzero.all():
            row_ids, indices, deltas = row_ids[nonzero], indices[nonzero], deltas[nonzero]
            if row_ids.size == 0:
                return
        if int(indices.min()) < 0 or int(indices.max()) >= self.domain_size:
            raise IndexError(f"index batch leaves domain [0, {self.domain_size})")
        if int(row_ids.min()) < 0 or int(row_ids.max()) >= self.num_rows:
            raise IndexError(f"row batch leaves [0, {self.num_rows})")
        obs.TRACER.observe("sketch.scatter.batch", row_ids.size)
        # Conservative single-cell headroom for this batch: every update
        # could land in one cell, each contributing at most |delta|*index
        # to the index-sum plane (and less to the totals plane).  The
        # volume itself must be computed without int64 wraparound: only
        # when length * max|delta| provably fits is the vectorized
        # |delta| sum exact; otherwise that product (a Python int) is
        # itself a valid conservative volume.
        max_abs_delta = max_abs_int64(deltas)
        if deltas.size * max_abs_delta < _INT64_SAFE_BOUND:
            volume = int(np.sum(np.abs(deltas), dtype=np.int64))
        else:
            volume = deltas.size * max_abs_delta
        batch_bound = volume * max(int(indices.max()), 1)
        if not self._admit(batch_bound):
            order = np.argsort(row_ids, kind="stable")
            sorted_rows = row_ids[order]
            boundaries = np.flatnonzero(np.diff(sorted_rows)) + 1
            for chunk in np.split(order, boundaries):
                row = int(row_ids[chunk[0]])
                self._spilled_sketch(row, create=True).update_batch(
                    indices[chunk], deltas[chunk]
                )
            return

        if self.lazy:
            unique_rows, inverse = np.unique(row_ids, return_inverse=True)
            slots = self._slots_for_batch(unique_rows)[inverse]
        else:
            slots = row_ids

        residues = np.remainder(deltas, MERSENNE_61).astype(np.uint64)
        if self.shared_seed:
            if self._pow_table is None:
                self._pow_table = build_pow_table(self._z, self.domain_size - 1)
                self._bucket_coeffs = np.array(
                    [row_hash.coefficients for row_hash in self._hash_objs],
                    dtype=np.uint64,
                )
            # The fused dispatch entry: polyhash → fold → fingerprint
            # weighting in one backend call (the hot per-chunk path).
            stacked, terms = stack_positions_terms(
                self._bucket_coeffs, self._pow_table, indices, residues, self.buckets
            )
            positions = [stacked[r] for r in range(self.rows)]
        else:
            powers = powmod61_bases(self._zs[row_ids], indices)
            positions = [
                (polyhash61_rows(self._coeff_mats[r], row_ids, indices)
                 % np.uint64(self.buckets)).astype(np.int64)
                for r in range(self.rows)
            ]
            terms = mulmod61(residues, powers)

        flat_base = slots * np.int64(self.cells)
        flat = np.concatenate(
            [flat_base + np.int64(r * self.buckets) + positions[r] for r in range(self.rows)]
        )
        tiled_deltas = np.tile(deltas, self.rows)
        totals_flat = self._totals.reshape(-1)
        index_flat = self._index_sums.reshape(-1)
        np.add.at(totals_flat, flat, tiled_deltas)
        np.add.at(index_flat, flat, np.tile(deltas * indices, self.rows))
        tiled_terms = np.tile(terms, self.rows)
        stored_cells = self._totals.shape[0] * self.cells
        if self.lazy or stored_cells > 4 * flat.size:
            # Aggregate over the batch's *distinct* cells only: lazy
            # stacks (and wide eager stacks fed small batches, e.g. the
            # spanner's per-root cut stacks) hold far more resident cells
            # than a chunk touches, and a full-width modular pass per
            # chunk would dwarf the batch.  Cells outside the batch
            # receive an exact +0, so this is bit-identical to the
            # full-array form.
            unique_flat, inverse_flat = np.unique(flat, return_inverse=True)
            agg = scatter_sum_mod61(unique_flat.size, inverse_flat, tiled_terms)
            fingerprints_flat = self._fingerprints.reshape(-1)
            fingerprints_flat[unique_flat] = addmod61(
                fingerprints_flat[unique_flat], agg
            )
        else:
            agg = scatter_sum_mod61(stored_cells, flat, tiled_terms)
            self._fingerprints = addmod61(
                self._fingerprints.reshape(-1), agg
            ).reshape(self._totals.shape[0], self.cells)

    # ------------------------------------------------------------------
    # Row materialization / decode support
    # ------------------------------------------------------------------

    def _materialize_row(self, row: int) -> SparseRecoverySketch:
        slot = self._slot(row, create=False)
        sketch = self._zero_row_sketch(row)
        if slot is not None:
            sketch._totals = self._totals[slot].tolist()
            sketch._index_sums = self._index_sums[slot].tolist()
            sketch._fingerprints = self._fingerprints[slot].tolist()
        return sketch

    def row_sketch(self, row: int) -> SparseRecoverySketch:
        """A standalone sketch holding row ``row``'s exact current state.

        Cheap view: hash families are shared (immutable), cells copied;
        mutating the returned sketch never touches the stack.  Reading a
        never-touched lazy row yields an exact zero state without
        materializing it.
        """
        if self._spilled is not None:
            return self._spilled_sketch(row, create=False).copy()
        return self._materialize_row(row)

    def rows_sum_sketch(self, row_ids) -> SparseRecoverySketch:
        """One sketch holding the exact cell-wise sum of the selected rows.

        Linearity makes this the sketch of the summed vectors — the
        Borůvka component sum and the spanner's ``Q`` sums, computed as
        vectorized column reductions instead of pairwise ``combine``
        loops (identical resulting state).  The integer planes are summed
        with limb splitting, so the reduction is exact for any row count
        even near the per-cell ``int64`` guard.
        """
        rows = np.asarray(list(row_ids), dtype=np.int64)
        if rows.size == 0:
            raise ValueError("rows_sum_sketch needs at least one row")
        if self._spilled is not None:
            combined = self._spilled_sketch(int(rows[0]), create=False).copy()
            for row in rows[1:]:
                combined.combine(self._spilled_sketch(int(row), create=False))
            return combined
        sketch = self._zero_row_sketch(int(rows[0]))
        if self.lazy:
            slots = [self._slot_of.get(int(row)) for row in rows]
            present = np.array(
                [slot for slot in slots if slot is not None], dtype=np.int64
            )
            if present.size == 0:
                return sketch
            totals = self._totals[present]
            index_sums = self._index_sums[present]
            selected = self._fingerprints[present]
        else:
            totals = self._totals[rows]
            index_sums = self._index_sums[rows]
            selected = self._fingerprints[rows]
        sketch._totals = _colsum_exact(totals)
        sketch._index_sums = _colsum_exact(index_sums)
        # Borůvka sums many components whose high sample levels hold no
        # contributions at all — skip the modular column sum for those.
        if selected.any():
            sketch._fingerprints = _colsum_mod61(selected).tolist()
        return sketch

    def is_row_zero(self, row: int) -> bool:
        """Whether row ``row``'s summarized vector is (whp) zero."""
        if self._spilled is not None:
            return self._spilled_sketch(row, create=False).is_zero()
        slot = self._slot(row, create=False)
        if slot is None:
            return True
        return (
            not self._totals[slot].any()
            and not self._index_sums[slot].any()
            and not self._fingerprints[slot].any()
        )

    def nonzero_row_ids(self) -> list[int]:
        """Sorted logical ids of rows with any nonzero cell.

        A pure function of the summarized vectors (independent of
        materialization and batch chunking), which is why the sparse
        wire format below is deterministic across engines.
        """
        if self._spilled is not None:
            return sorted(
                row for row, sketch in self._spilled.items() if not sketch.is_zero()
            )
        return self._nonzero_rows_and_slots()[0].tolist()

    def _nonzero_rows_and_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending logical ids of the nonzero rows and their storage
        slots (columnar storage only)."""
        used = len(self._slot_rows) if self.lazy else self.num_rows
        if used == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        alive = (
            self._totals[:used].any(axis=1)
            | self._index_sums[:used].any(axis=1)
            | self._fingerprints[:used].any(axis=1)
        )
        if self.lazy:
            rows, slots = self._sorted_snapshot()
            keep = alive[slots]
            return rows[keep], slots[keep]
        rows = np.flatnonzero(alive).astype(np.int64)
        return rows, rows

    # ------------------------------------------------------------------
    # Serialization (per-row, matching SparseRecoverySketch layout)
    # ------------------------------------------------------------------

    def row_state_len(self) -> int:
        """Length of one row's :meth:`row_state_ints`."""
        return 3 * self.cells

    def row_state_ints(self, row: int) -> list[int]:
        """Row ``row``'s dynamic state, exactly as the standalone
        sketch's ``state_ints()`` would serialize it."""
        if self._spilled is not None:
            return self._spilled_sketch(row, create=False).state_ints()
        slot = self._slot(row, create=False)
        if slot is None:
            return [0] * (3 * self.cells)
        return (
            self._totals[slot].tolist()
            + self._index_sums[slot].tolist()
            + self._fingerprints[slot].tolist()
        )

    def _admit_overwrite(self, magnitude: int) -> bool:
        """Admit cells of at most ``magnitude`` written *over* resident
        ones (a state load).  Overwriting cannot raise any cell above
        ``max(bound, magnitude)``, so no headroom is reserved and no
        tightening scan runs; returns ``False`` after spilling when
        ``magnitude`` itself is past the guard."""
        if self._spilled is not None:
            return False
        if magnitude < _INT64_SAFE_BOUND:
            self._bound = max(self._bound, magnitude)
            return True
        self._spill()
        return False

    def load_row_state(self, row: int, values) -> None:
        """Inverse of :meth:`row_state_ints` for row ``row``.

        Loading an all-zero state into a never-touched lazy row is a
        no-op, so restoring a sparse checkpoint materializes exactly the
        rows it ships.  Only the totals and index-sum planes count
        against the ``int64`` guard: fingerprints are residues mod ``p``
        whatever their magnitude on the wire.
        """
        if len(values) != 3 * self.cells:
            raise ValueError(f"expected {3 * self.cells} state ints, got {len(values)}")
        if not 0 <= row < self.num_rows:
            raise ValueError(f"row {row} out of [0, {self.num_rows})")
        cells = self.cells
        magnitude = max((abs(int(v)) for v in values[: 2 * cells]), default=0)
        if (
            self.lazy
            and self._spilled is None
            and self._slot(row, create=False) is None
            and magnitude == 0
            and not any(int(v) for v in values[2 * cells :])
        ):
            return
        if not self._admit_overwrite(magnitude):
            self._spilled_sketch(row, create=True).from_state_ints(values)
            return
        slot = self._slot(row, create=True)
        self._totals[slot] = np.array(values[:cells], dtype=np.int64)
        self._index_sums[slot] = np.array(values[cells : 2 * cells], dtype=np.int64)
        self._fingerprints[slot] = np.array(
            [int(v) % MERSENNE_61 for v in values[2 * cells :]], dtype=np.uint64
        )

    def reset_state(self) -> None:
        """Drop every cell back to the all-zero state (seeds kept).

        The sparse wire ships nonzero rows only, so *overwriting* a
        possibly non-fresh stack from a wire block must clear resident
        state first — rows absent from the message are zero by contract.
        """
        stored = 0 if self.lazy else self.num_rows
        self._totals = np.zeros((stored, self.cells), dtype=np.int64)
        self._index_sums = np.zeros((stored, self.cells), dtype=np.int64)
        self._fingerprints = np.zeros((stored, self.cells), dtype=np.uint64)
        self._slot_of = {} if self.lazy else None
        self._slot_rows = [] if self.lazy else None
        self._sorted_rows = self._sorted_slots = None
        self._bound = 0
        self._spilled = None

    def sparse_state_ints(self) -> np.ndarray:
        """Self-delimiting nonzero-rows block: ``[count, (row id, row
        state) ...]`` in ascending logical row order, as an ``int64``
        array.

        Dense and lazy stacks fed the same updates emit identical
        blocks — the storage-independent wire format that checkpoints
        and shard messages use to carry logical row ids.  Columnar
        storage emits the block as one gather per counter plane into a
        ``(count, 1 + row_state_len)`` view; a spilled stack walks its
        per-row sketches (an ``object`` array if a cell left ``int64``,
        see :func:`~repro.sketch.serialize.int_array`).
        """
        if self._spilled is not None:
            rows = self.nonzero_row_ids()
            flat: list[int] = [len(rows)]
            for row in rows:
                flat.append(row)
                flat.extend(self.row_state_ints(row))
            return int_array(flat)
        rows, slots = self._nonzero_rows_and_slots()
        cells = self.cells
        out = np.empty(1 + rows.size * (1 + 3 * cells), dtype=np.int64)
        out[0] = rows.size
        block = out[1:].reshape(rows.size, 1 + 3 * cells)
        block[:, 0] = rows
        block[:, 1 : 1 + cells] = self._totals[slots]
        block[:, 1 + cells : 1 + 2 * cells] = self._index_sums[slots]
        # Fingerprints are residues below p < 2^61: exact as int64.
        block[:, 1 + 2 * cells :] = self._fingerprints[slots]
        return out

    def load_sparse_state(self, values, cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints`; returns the new cursor.

        ``values`` is an int sequence (an ``int64`` array takes the
        vectorized path: one reshape, one batch intern, one ``% p``).
        Raises ``ValueError`` when the block overruns ``values`` or
        names rows outside ``[0, num_rows)`` or out of ascending order.
        """
        count = int(values[cursor])
        cursor += 1
        width = 1 + self.row_state_len()
        end = cursor + count * width
        if count < 0 or end > len(values):
            raise ValueError(
                f"sparse block of {count} rows overruns the {len(values)}-int wire"
            )
        block = int_array(values[cursor:end]).reshape(count, width)
        rows = block[:, 0]
        if count and (
            int(rows[0]) < 0
            or int(rows[-1]) >= self.num_rows
            or bool(np.any(rows[1:] <= rows[:-1]))
        ):
            raise ValueError(
                f"sparse block rows must ascend strictly within [0, {self.num_rows})"
            )
        if block.dtype != np.int64 or not self._load_block(block):
            for line in block:
                self.load_row_state(int(line[0]), line[1:])
        return end

    def _load_block(self, block: np.ndarray) -> bool:
        """Overwrite the rows of a validated ``(count, 1 + 3 * cells)``
        ``int64`` block in one vectorized pass; ``False`` (nothing
        loaded) when the stack is or becomes spilled."""
        if self._spilled is not None:
            return False
        if block.shape[0] == 0:
            return True
        cells = self.cells
        if self.lazy:
            # As in load_row_state: all-zero rows materialize nothing
            # unless they overwrite a resident row.
            alive = block[:, 1:].any(axis=1)
            if not alive.all():
                alive |= np.isin(block[:, 0], self._sorted_snapshot()[0])
                block = block[alive]
                if block.shape[0] == 0:
                    return True
        planes = block[:, 1 : 1 + 2 * cells]
        if not self._admit_overwrite(max_abs_int64(planes)):
            return False
        rows = block[:, 0]
        slots = self._slots_for_batch(rows) if self.lazy else rows
        self._totals[slots] = planes[:, :cells]
        self._index_sums[slots] = planes[:, cells:]
        self._fingerprints[slots] = np.remainder(
            block[:, 1 + 2 * cells :], MERSENNE_61
        ).astype(np.uint64)
        return True

    # ------------------------------------------------------------------
    # Linearity / copying
    # ------------------------------------------------------------------

    def combine(self, other: "SketchStack", sign: int = 1) -> None:
        """In-place ``self += sign * other`` row-wise; seeds/shapes must
        match.  Mixed dense/lazy and spilled/columnar operands are all
        handled — touched rows land bit-identically regardless of either
        operand's storage."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if self._seed_signature() != other._seed_signature():
            raise ValueError("cannot combine stacks with different seeds")
        if self.num_rows != other.num_rows or self.cells != other.cells:
            raise ValueError("cannot combine stacks with different shapes")
        if self._spilled is None and other._spilled is None:
            if not self.lazy and not other.lazy:
                if self._admit(other._bound):
                    self._totals += sign * other._totals
                    self._index_sums += sign * other._index_sums
                    if sign == 1:
                        self._fingerprints = addmod61(self._fingerprints, other._fingerprints)
                    else:
                        self._fingerprints = submod61(self._fingerprints, other._fingerprints)
                    return
            else:
                rows = other.nonzero_row_ids()
                if not rows:
                    return
                if self._admit(other._bound):
                    other_slots = np.array(
                        [other._slot(row, create=False) for row in rows], dtype=np.int64
                    )
                    my_slots = np.array(
                        [self._slot(row, create=True) for row in rows], dtype=np.int64
                    )
                    self._totals[my_slots] += sign * other._totals[other_slots]
                    self._index_sums[my_slots] += sign * other._index_sums[other_slots]
                    theirs = other._fingerprints[other_slots]
                    if sign == 1:
                        self._fingerprints[my_slots] = addmod61(
                            self._fingerprints[my_slots], theirs
                        )
                    else:
                        self._fingerprints[my_slots] = submod61(
                            self._fingerprints[my_slots], theirs
                        )
                    return
        self._spill()
        for row in other.touched_row_ids():
            self._spilled_sketch(row, create=True).combine(other.row_sketch(row), sign)

    def clone(self) -> "SketchStack":
        """Independent copy with the same state and seeds."""
        clone = object.__new__(SketchStack)
        clone.num_rows = self.num_rows
        clone.domain_size = self.domain_size
        clone.budget = self.budget
        clone.rows = self.rows
        clone.buckets = self.buckets
        clone.cells = self.cells
        clone.shared_seed = self.shared_seed
        clone.lazy = self.lazy
        clone._seed_key = self._seed_key
        clone._seed_keys = self._seed_keys
        clone._z = self._z
        clone._zs = self._zs
        clone._hash_objs = self._hash_objs
        clone._coeff_mats = self._coeff_mats
        clone._pow_table = self._pow_table
        clone._bucket_coeffs = self._bucket_coeffs
        clone._bound = self._bound
        clone._sorted_rows = clone._sorted_slots = None
        if self._spilled is not None:
            clone._totals = clone._index_sums = clone._fingerprints = None
            clone._slot_of = clone._slot_rows = None
            clone._spilled = {row: sketch.copy() for row, sketch in self._spilled.items()}
        else:
            clone._totals = self._totals.copy()
            clone._index_sums = self._index_sums.copy()
            clone._fingerprints = self._fingerprints.copy()
            clone._slot_of = None if self._slot_of is None else dict(self._slot_of)
            clone._slot_rows = None if self._slot_rows is None else list(self._slot_rows)
            clone._spilled = None
        return clone

    def row_space_words(self) -> int:
        """Per-row persistent state in machine words — same accounting as
        the standalone sketch's ``space_words()``."""
        hashes = self._hash_objs if self.shared_seed else self._hash_objs[0]
        return 3 * self.cells + sum(h.space_words() for h in hashes) + 1

    def resident_space_words(self) -> int:
        """Words actually held: resident rows only (dense: all rows)."""
        return self.resident_rows() * self.row_space_words()

    def universe_space_words(self) -> int:
        """Words a fully dense allocation over the universe would hold."""
        return self.num_rows * self.row_space_words()

    def __repr__(self) -> str:
        return (
            f"SketchStack(num_rows={self.num_rows}, domain_size={self.domain_size}, "
            f"budget={self.budget}, rows={self.rows}, buckets={self.buckets}, "
            f"shared_seed={self.shared_seed}, lazy={self.lazy}, "
            f"resident={self.resident_rows()}, spilled={self.is_spilled()})"
        )


class L0SamplerStack:
    """Columnar state of ``num_rows`` same-seeded L0-samplers.

    One shared :class:`~repro.sketch.hashing.NestedSampler` membership
    evaluation per coordinate routes each incidence to its geometric
    levels; every level is a shared-seed :class:`SketchStack`.  This is
    the storage behind :class:`~repro.agm.spanning_forest.AgmSketch`:
    rows are vertices, and all rows of one AGM round hash the same edge
    coordinates — the structure the columnar layout exploits.  With
    ``lazy=True`` every level materializes rows on first touch, so a
    huge-universe round stack holds state for touched vertices only.
    """

    __slots__ = ("num_rows", "domain_size", "levels", "lazy", "_seed_key", "_membership", "_level_stacks", "_tiebreak")

    def __init__(self, num_rows: int, domain_size: int, seed, budget: int = 4, lazy: bool = False):
        self.num_rows = num_rows
        self.domain_size = domain_size
        self.levels, self._seed_key, self._membership, self._tiebreak = (
            L0Sampler.shared_randomness(domain_size, seed, budget)
        )
        self.lazy = bool(lazy)
        self._level_stacks = [
            SketchStack(
                num_rows,
                domain_size,
                budget,
                derive_seed(self._seed_key, "level", j),
                rows=3,
                lazy=self.lazy,
            )
            for j in range(self.levels)
        ]

    def update_row(self, row: int, index: int, delta: int) -> None:
        """Scalar ``x_row[index] += delta`` — bit-identical to
        :meth:`L0Sampler.update` on the row's sampler."""
        if delta == 0:
            return
        deepest = self._membership.level(index)
        for j in range(deepest + 1):
            self._level_stacks[j].update_row(row, index, delta)

    def scatter(self, row_ids: np.ndarray, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Vectorized incidence batch: one membership evaluation per
        coordinate, then one :meth:`SketchStack.scatter` per level."""
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        levels = self._membership.level_array(indices)
        row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        for j in range(int(levels.max()) + 1):
            surviving = levels >= j
            self._level_stacks[j].scatter(
                row_ids[surviving], indices[surviving], deltas[surviving]
            )

    # ------------------------------------------------------------------
    # Row materialization / decode support
    # ------------------------------------------------------------------

    def _sampler_from_sketches(self, sketches: list[SparseRecoverySketch]) -> L0Sampler:
        sampler = object.__new__(L0Sampler)
        sampler.domain_size = self.domain_size
        sampler.levels = self.levels
        sampler._seed_key = self._seed_key
        sampler._membership = self._membership
        sampler._level_sketches = sketches
        sampler._tiebreak = self._tiebreak
        return sampler

    def row_sampler(self, row: int) -> L0Sampler:
        """A standalone sampler holding row ``row``'s exact state."""
        return self._sampler_from_sketches(
            [stack.row_sketch(row) for stack in self._level_stacks]
        )

    def rows_sum_sampler(self, row_ids) -> L0Sampler:
        """One sampler summarizing the exact sum of the selected rows —
        the Borůvka component sum, as column reductions."""
        rows = list(row_ids)
        return self._sampler_from_sketches(
            [stack.rows_sum_sketch(rows) for stack in self._level_stacks]
        )

    def is_row_zero(self, row: int) -> bool:
        """Whether row ``row``'s vector is (whp) identically zero."""
        return self._level_stacks[0].is_row_zero(row)

    def touched_row_ids(self) -> list[int]:
        """Sorted logical ids of rows ever updated (every update reaches
        level 0, so the level-0 stack carries the full touched set)."""
        return self._level_stacks[0].touched_row_ids()

    def resident_rows(self) -> int:
        """Materialized ``(level, row)`` slots across all level stacks."""
        return sum(stack.resident_rows() for stack in self._level_stacks)

    def num_touched_rows(self) -> int:
        """Number of rows ever updated, in O(1) (the level-0 stack's
        resident count — every update reaches level 0).  The cheap
        cardinality twin of :meth:`touched_row_ids`, which sorts."""
        return self._level_stacks[0].resident_rows()

    def state_digest(self, hasher) -> None:
        """Feed every level stack's resident state into ``hasher``
        (see :meth:`SketchStack.state_digest` for the canonical order
        and the like-engine comparability caveat)."""
        for level, stack in enumerate(self._level_stacks):
            hasher.update(np.int64(level).tobytes())
            stack.state_digest(hasher)

    # ------------------------------------------------------------------
    # Serialization (per-row, matching L0Sampler layout)
    # ------------------------------------------------------------------

    def row_state_len(self) -> int:
        """Length of one row's :meth:`row_state_ints`."""
        return sum(stack.row_state_len() for stack in self._level_stacks)

    def row_state_ints(self, row: int) -> list[int]:
        """Row ``row``'s state, exactly as ``L0Sampler.state_ints()``."""
        flat: list[int] = []
        for stack in self._level_stacks:
            flat.extend(stack.row_state_ints(row))
        return flat

    def load_row_state(self, row: int, values: list[int]) -> None:
        """Inverse of :meth:`row_state_ints` for row ``row``."""
        cursor = 0
        for stack in self._level_stacks:
            need = stack.row_state_len()
            stack.load_row_state(row, values[cursor : cursor + need])
            cursor += need
        if cursor != len(values):
            raise ValueError(f"expected {cursor} state ints, got {len(values)}")

    def reset_state(self) -> None:
        """Drop every level stack back to the all-zero state."""
        for stack in self._level_stacks:
            stack.reset_state()

    def sparse_state_ints(self) -> np.ndarray:
        """Concatenated per-level nonzero-row blocks (see
        :meth:`SketchStack.sparse_state_ints`) — storage-independent."""
        return np.concatenate([stack.sparse_state_ints() for stack in self._level_stacks])

    def load_sparse_state(self, values, cursor: int = 0) -> int:
        """Inverse of :meth:`sparse_state_ints`; returns the new cursor."""
        for stack in self._level_stacks:
            cursor = stack.load_sparse_state(values, cursor)
        return cursor

    # ------------------------------------------------------------------
    # Linearity / copying
    # ------------------------------------------------------------------

    def combine(self, other: "L0SamplerStack", sign: int = 1) -> None:
        """In-place ``self += sign * other``; seeds must match (mixed
        dense/lazy storage is handled level-wise)."""
        if self._seed_key != other._seed_key:
            raise ValueError("cannot combine stacks with different seeds")
        for mine, theirs in zip(self._level_stacks, other._level_stacks):
            mine.combine(theirs, sign)

    def clone(self) -> "L0SamplerStack":
        """Independent copy with the same state and seed."""
        clone = object.__new__(L0SamplerStack)
        clone.num_rows = self.num_rows
        clone.domain_size = self.domain_size
        clone.levels = self.levels
        clone.lazy = self.lazy
        clone._seed_key = self._seed_key
        clone._membership = self._membership
        clone._tiebreak = self._tiebreak
        clone._level_stacks = [stack.clone() for stack in self._level_stacks]
        return clone

    def row_space_words(self) -> int:
        """Per-row persistent state in machine words — same accounting as
        the standalone sampler's ``space_words()``."""
        return (
            self._membership.space_words()
            + self._tiebreak.space_words()
            + sum(stack.row_space_words() for stack in self._level_stacks)
        )

    def resident_space_words(self) -> int:
        """Words actually held by materialized rows.

        Mirrors the historical per-sampler accounting (each row charges
        its own membership/tiebreak seeds), so a dense stack reports
        exactly ``num_rows * row_space_words()`` while a lazy stack
        charges touched rows only.
        """
        seed_words = self._membership.space_words() + self._tiebreak.space_words()
        return (
            self._level_stacks[0].resident_rows() * seed_words
            + sum(stack.resident_space_words() for stack in self._level_stacks)
        )

    def universe_space_words(self) -> int:
        """Words a fully dense universe allocation would hold."""
        return self.num_rows * self.row_space_words()

    def __repr__(self) -> str:
        return (
            f"L0SamplerStack(num_rows={self.num_rows}, "
            f"domain_size={self.domain_size}, levels={self.levels}, "
            f"lazy={self.lazy})"
        )
