"""The ``clone()`` contract audit (see :mod:`repro.sketch`).

Every sketch class and every StreamingAlgorithm must produce clones
whose dynamic state is independent (mutating either side never leaks
into the other) while the immutable seed-derived randomness stays
shared.  The live service's snapshot queries stand on this contract.
"""

import copy

import pytest

from repro.agm.connectivity import (
    BipartitenessChecker,
    ConnectivityChecker,
    KConnectivityCertificate,
)
from repro.agm.spanning_forest import AgmSketch
from repro.core import SparsifierParams, TwoPassSpannerBuilder
from repro.core.sparsify import StreamingSparsifier, StreamingWeightedSparsifier
from repro.sketch import (
    CountSketch,
    DistinctElementsSketch,
    KWiseHash,
    L0Sampler,
    LinearHashTable,
    NeighborhoodHashTable,
    NestedSampler,
    OneSparseDetector,
    SparseRecoverySketch,
)
from repro.stream.updates import EdgeUpdate

SLIM = SparsifierParams(estimate_levels=2, sampling_levels=2, sampling_rounds_factor=0.01)

#: (constructor, mutator) for every sketch class in the repository.
SKETCHES = [
    (lambda: OneSparseDetector(500, "clone"), lambda s: s.update(7, 1)),
    (lambda: SparseRecoverySketch(500, 4, "clone"), lambda s: s.update(7, 1)),
    (lambda: L0Sampler(500, "clone"), lambda s: s.update(7, 1)),
    (lambda: CountSketch(500, 4, "clone"), lambda s: s.update(7, 1)),
    (lambda: DistinctElementsSketch(500, "clone", reps=4), lambda s: s.update(7, 1)),
    (lambda: LinearHashTable(100, 3, 4, "clone"),
     lambda s: s.add_payload(7, [1, 2, 3])),
    (lambda: NeighborhoodHashTable(100, 4, "clone"),
     lambda s: s.add_neighbor(7, 9, 1)),
    (lambda: AgmSketch(12, "clone"), lambda s: s.update(1, 2, 1)),
]

SKETCH_IDS = [factory().__class__.__name__ for factory, _ in SKETCHES]


@pytest.mark.parametrize("factory,mutate", SKETCHES, ids=SKETCH_IDS)
class TestSketchClones:
    def test_clone_state_is_independent(self, factory, mutate):
        original = factory()
        mutate(original)
        clone = original.clone()
        assert list(clone.state_ints()) == list(original.state_ints())
        mutate(original)
        assert list(clone.state_ints()) != list(original.state_ints())
        mutate(clone)
        assert list(clone.state_ints()) == list(original.state_ints())

    def test_clone_is_same_type_and_summable(self, factory, mutate):
        original = factory()
        mutate(original)
        clone = original.clone()
        assert type(clone) is type(original)
        # Same seed-derived randomness: clones must remain combinable.
        clone.combine(original, sign=-1)
        assert all(value == 0 for value in clone.state_ints())


class TestSharedRandomnessSurvivesCopy:
    def test_hash_families_deepcopy_as_themselves(self):
        shared = KWiseHash.shared(4, "deepcopy")
        assert copy.deepcopy(shared) is shared
        assert copy.copy(shared) is shared
        sampler = NestedSampler(8, "deepcopy")
        assert copy.deepcopy(sampler) is sampler

    def test_sparse_recovery_clone_shares_row_hashes(self):
        sketch = SparseRecoverySketch(500, 4, "share")
        clone = sketch.clone()
        assert clone._row_hashes is sketch._row_hashes

    def test_deepcopy_of_sketch_keeps_interned_hashes(self):
        sketch = SparseRecoverySketch(500, 4, "share-deep")
        duplicate = copy.deepcopy(sketch)
        assert duplicate._row_hashes[0] is sketch._row_hashes[0]


def feed(algorithm, updates, pass_index=0):
    algorithm.begin_pass(pass_index)
    for update in updates:
        algorithm.process(update, pass_index)


UPDATES = [
    EdgeUpdate(0, 1, +1),
    EdgeUpdate(1, 2, +1),
    EdgeUpdate(2, 3, +1),
    EdgeUpdate(3, 4, +1),
    EdgeUpdate(4, 5, +1),
]

ALGORITHMS = [
    lambda: ConnectivityChecker(8, "algo"),
    lambda: BipartitenessChecker(8, "algo"),
    lambda: KConnectivityCertificate(8, 2, "algo"),
    lambda: TwoPassSpannerBuilder(8, 2, "algo"),
    # k=2 so the sub-spanners hold pass-0 cluster sketches (at k=1 the
    # level hierarchy is trivial and pass 0 is legitimately stateless).
    lambda: StreamingSparsifier(8, "algo", k=2, params=SLIM),
    lambda: StreamingWeightedSparsifier(8, "algo", 1.0, 4.0, k=2, params=SLIM),
]

ALGORITHM_IDS = [factory().__class__.__name__ for factory in ALGORITHMS]


@pytest.mark.parametrize("factory", ALGORITHMS, ids=ALGORITHM_IDS)
def test_algorithm_clone_pass0_state_is_independent(factory):
    original = factory()
    feed(original, UPDATES[:3])
    clone = original.clone()
    snapshot = list(clone.shard_state_ints(0))
    assert snapshot == list(original.shard_state_ints(0))
    for update in UPDATES[3:]:
        original.process(update, 0)
    assert list(clone.shard_state_ints(0)) == snapshot
    assert list(original.shard_state_ints(0)) != snapshot


def test_sparsifier_clone_finalize_does_not_pollute_live_core():
    """A snapshot clone attaches oracles and sampler outputs to *its*
    core; the live pipeline must stay pristine for future epochs."""
    live = StreamingSparsifier(8, "pollute", k=1, params=SLIM)
    feed(live, UPDATES[:4])
    clone = live.clone()
    clone.end_pass(0)
    clone.begin_pass(1)
    for update in UPDATES[:4]:
        clone.process(update, 1)
    clone.end_pass(1)
    clone.finalize()
    assert live.core.estimator.oracles_missing() > 0
    assert not live.core.estimator._bfs_cache
    assert all(not sampler._outputs for sampler in live.core.samplers)


def test_base_streaming_algorithm_clone_is_deepcopy():
    from repro.core import AdditiveSpannerBuilder

    builder = AdditiveSpannerBuilder(8, 2, seed="deep")
    feed(builder, UPDATES[:3])
    clone = builder.clone()
    for update in UPDATES[3:]:
        builder.process(update, 0)
    # Clone kept the pre-mutation state: finalizing both yields spanners
    # over different edge sets only because of the extra updates.
    assert type(clone) is AdditiveSpannerBuilder
