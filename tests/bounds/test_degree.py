"""Unit behaviour of the degree-sequence statistics layer.

The norms a :class:`DegreeSketch` reports must be the exact norms of
the live multiset's frequency vector under any insert/delete history,
and the :class:`DegreeObserver` batch path must land on the same state
as the per-op path — everything downstream (bounds, merges,
checkpoints) leans on these two facts.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.bounds.degree import DegreeObserver, DegreeSketch
from repro.core.normalization import Domain
from repro.streams.relation import StreamRelation
from repro.streams.tuples import OpKind, StreamOp


def sketch_of(counts):
    sketch = DegreeSketch(len(counts))
    sketch.load_counts(np.array(counts, dtype=np.int64))
    return sketch


class TestDegreeSketch:
    def test_tracks_exact_frequencies_under_inserts_and_deletes(self):
        sketch = DegreeSketch(5)
        for index in [0, 0, 0, 3, 3, 4]:
            sketch.update(index, 1)
        sketch.update(3, -1)
        assert sketch.freq.tolist() == [3, 0, 0, 1, 1]
        assert sketch.count == 5
        assert sketch.max_degree == 3
        assert sketch.l1 == 5
        assert sketch.l2 == pytest.approx(math.sqrt(9 + 1 + 1))

    def test_lp_norms_interpolate_between_l1_and_max_degree(self):
        sketch = DegreeSketch(4)
        sketch.load_counts(np.array([4, 2, 1, 0]))
        assert sketch.lp(1) == 7.0
        assert sketch.lp(math.inf) == 4.0
        assert sketch.lp(2) == pytest.approx(math.sqrt(16 + 4 + 1))
        assert sketch.lp(3) == pytest.approx((64 + 8 + 1) ** (1 / 3))
        # Lp is nonincreasing in p for a fixed vector
        values = [sketch.lp(p) for p in (1, 1.5, 2, 3, math.inf)]
        assert values == sorted(values, reverse=True)

    def test_batch_update_matches_per_op_updates(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 10, size=200)
        one = DegreeSketch(10)
        one.update_batch(indices, 1)
        other = DegreeSketch(10)
        for index in indices:
            other.update(int(index), 1)
        assert np.array_equal(one.freq, other.freq)
        one.update_batch(indices[:50], -1)
        for index in indices[:50]:
            other.update(int(index), -1)
        assert np.array_equal(one.freq, other.freq)

    def test_state_dict_round_trips_bit_identically(self):
        sketch = DegreeSketch(6)
        sketch.update_batch(np.array([1, 1, 5, 0]), 1)
        restored = DegreeSketch(6)
        restored.load_state(sketch.state_dict())
        assert np.array_equal(restored.freq, sketch.freq)
        assert restored.freq.dtype == np.int64
        # the copy is defensive: mutating the snapshot cannot corrupt it
        snapshot = sketch.state_dict()
        snapshot["freq"][0] = 99
        assert sketch.freq[0] != 99

    def test_rejects_bad_sizes_shapes_and_exponents(self):
        with pytest.raises(ValueError, match="positive"):
            DegreeSketch(0)
        sketch = DegreeSketch(3)
        with pytest.raises(ValueError, match="shape"):
            sketch.load_counts(np.zeros(4))
        with pytest.raises(ValueError, match="p >= 1"):
            sketch.lp(0.5)

    def test_lp_never_rounds_below_the_true_norm(self):
        # every norm rounds up, also where the float power sum drops the
        # small terms (2**40 cubed swallows 3 cubed)
        assert sketch_of([5, 0]).lp(2) >= 5.0
        assert sketch_of([0, 7]).lp(3) >= 7.0
        assert sketch_of([5, 0]).lp(1.5) >= 5.0
        for counts, p in (([4, 2, 1], 2), ([4, 2, 1], 3), ([2**40, 3], 3)):
            total = sum(c**p for c in counts)
            assert Fraction(sketch_of(counts).lp(p)) ** p >= total, (counts, p)

    def test_empty_sketch_norms_are_zero(self):
        sketch = DegreeSketch(8)
        assert sketch.count == 0
        assert sketch.max_degree == 0
        assert sketch.l2 == 0.0
        assert sketch.lp(2.5) == 0.0


class TestDegreeObserver:
    def _relation(self):
        return StreamRelation(
            "R", ["A", "B"], [Domain.of_size(6), Domain.of_size(4)]
        )

    def test_observes_the_configured_axis_only(self):
        relation = self._relation()
        sketch = DegreeSketch(4)
        relation.attach(DegreeObserver(sketch, relation.domains[1], axis=1))
        relation.insert_rows(np.array([[0, 1], [1, 1], [2, 3]]))
        assert sketch.freq.tolist() == [0, 2, 0, 1]
        relation.delete_rows(np.array([[0, 1]]))
        assert sketch.freq.tolist() == [0, 1, 0, 1]

    def test_per_op_path_matches_batch_path(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack(
            [rng.integers(0, 6, 120), rng.integers(0, 4, 120)]
        )
        batched_rel = self._relation()
        batched = DegreeSketch(6)
        batched_rel.attach(DegreeObserver(batched, batched_rel.domains[0], axis=0))
        batched_rel.insert_rows(rows)
        per_op_rel = self._relation()
        per_op = DegreeSketch(6)
        observer = DegreeObserver(per_op, per_op_rel.domains[0], axis=0)
        per_op_rel.attach(observer)
        for row in rows:
            per_op_rel.process(StreamOp(tuple(row), OpKind.INSERT))
        assert np.array_equal(batched.freq, per_op.freq)

    def test_empty_batch_is_a_no_op(self):
        relation = self._relation()
        sketch = DegreeSketch(6)
        observer = DegreeObserver(sketch, relation.domains[0], axis=0)
        observer.on_ops(relation, np.empty((0, 2), dtype=np.int64), OpKind.INSERT)
        assert sketch.count == 0

    def test_structural_fields_are_checkpoint_exempt(self):
        # state_dict carries only the frequency vector; axis and domain
        # are rebuilt from the query spec at (re-)registration time.
        relation = self._relation()
        observer = DegreeObserver(DegreeSketch(6), relation.domains[0], axis=0)
        assert set(observer.state_dict()) == {"freq"}
        assert "domain" in observer._checkpoint_exempt
        assert "axis" in observer._checkpoint_exempt
