"""Tests for the CosineSynopsis: construction, maintenance, combination."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.core.synopsis import CosineSynopsis, synopses_for_budget
from repro.core.triangular import triangular_count


def random_counts(rng, *shape):
    return rng.integers(0, 25, size=shape).astype(float)


class TestConstruction:
    def test_requires_exactly_one_of_order_or_budget(self):
        d = Domain.of_size(10)
        with pytest.raises(ValueError, match="exactly one"):
            CosineSynopsis(d)
        with pytest.raises(ValueError, match="exactly one"):
            CosineSynopsis(d, order=3, budget=10)

    def test_budget_resolves_to_maximal_order(self):
        syn = CosineSynopsis([Domain.of_size(100)] * 2, budget=15)
        assert syn.order == 5
        assert syn.num_coefficients == triangular_count(5, 2)

    def test_order_clamped_to_domain_size(self):
        syn = CosineSynopsis(Domain.of_size(6), order=50)
        assert syn.order == 6

    def test_full_truncation_count(self):
        syn = CosineSynopsis([Domain.of_size(30)] * 2, order=4, truncation="full")
        assert syn.num_coefficients == 16

    def test_unknown_truncation_rejected(self):
        with pytest.raises(ValueError, match="unknown truncation"):
            CosineSynopsis(Domain.of_size(5), order=2, truncation="spherical")

    def test_empty_synopsis_has_no_coefficients(self):
        syn = CosineSynopsis(Domain.of_size(5), order=2)
        with pytest.raises(ValueError, match="empty"):
            _ = syn.coefficients

    def test_single_domain_shorthand(self):
        syn = CosineSynopsis(Domain.of_size(9), order=3)
        assert syn.ndim == 1


class TestIncrementalMaintenance:
    def test_incremental_equals_batch_equals_closed_form(self, rng):
        # The section 3.2 claim: Eq. 3.4 single-tuple updates, batch
        # updates, and the Eq. 3.3 closed form all agree exactly.
        d = Domain.of_size(40)
        rows = rng.integers(0, 40, size=(300, 1))
        one_by_one = CosineSynopsis(d, order=12)
        for row in rows:
            one_by_one.insert(row)
        batch = CosineSynopsis(d, order=12)
        batch.insert_batch(rows)
        closed = CosineSynopsis.from_counts(
            d, np.bincount(rows[:, 0], minlength=40), order=12
        )
        np.testing.assert_allclose(one_by_one.coefficients, batch.coefficients, atol=1e-12)
        np.testing.assert_allclose(batch.coefficients, closed.coefficients, atol=1e-12)

    def test_count_tracks_insertions_and_deletions(self):
        syn = CosineSynopsis(Domain.of_size(5), order=3)
        syn.insert((2,))
        syn.insert((3,))
        syn.delete((2,))
        assert syn.count == 1

    def test_delete_inverts_insert(self, rng):
        d = Domain.of_size(30)
        base_rows = rng.integers(0, 30, size=(100, 1))
        extra_rows = rng.integers(0, 30, size=(40, 1))
        syn = CosineSynopsis(d, order=10)
        syn.insert_batch(base_rows)
        reference = syn.coefficients.copy()
        syn.insert_batch(extra_rows)
        syn.delete_batch(extra_rows)
        np.testing.assert_allclose(syn.coefficients, reference, atol=1e-12)

    def test_delete_below_zero_rejected(self):
        syn = CosineSynopsis(Domain.of_size(5), order=2)
        syn.insert((1,))
        with pytest.raises(ValueError, match="more tuples"):
            syn.delete_batch(np.array([[1], [2]]))

    def test_multidimensional_updates(self, rng):
        doms = [Domain.of_size(12), Domain.of_size(8)]
        rows = np.stack(
            [rng.integers(0, 12, size=150), rng.integers(0, 8, size=150)], axis=1
        )
        streamed = CosineSynopsis(doms, order=5)
        streamed.insert_batch(rows)
        counts = np.zeros((12, 8))
        np.add.at(counts, (rows[:, 0], rows[:, 1]), 1)
        closed = CosineSynopsis.from_counts(doms, counts, order=5)
        np.testing.assert_allclose(streamed.coefficients, closed.coefficients, atol=1e-12)

    def test_domains_with_more_cells_than_int64_numbers(self, rng):
        # four attributes of 10^5 values span 10^20 cells
        doms = [Domain.of_size(100_000)] * 4
        distinct = rng.integers(0, 100_000, size=(30, 4))
        rows = np.concatenate([distinct, distinct[:12]])
        batched = CosineSynopsis(doms, order=3)
        batched.insert_batch(rows)
        batched.delete_batch(distinct[:5])
        batched.delete(distinct[5])
        batched.insert(distinct[6])
        counts = np.ones(30)
        counts[:12] += 1
        counts[:6] -= 1
        counts[6] += 1
        weighted = CosineSynopsis(doms, order=3)
        weighted.insert_batch(distinct, multiplicity=counts)
        np.testing.assert_allclose(batched.coefficients, weighted.coefficients, atol=1e-12)
        assert batched.count == weighted.count == 37

    def test_raw_values_with_offset_domain(self):
        d = Domain.integer_range(100, 109)
        syn = CosineSynopsis(d, order=4)
        syn.insert((105,))
        assert syn.count == 1
        with pytest.raises(ValueError, match="outside"):
            syn.insert((99,))

    def test_wrong_arity_rejected(self):
        syn = CosineSynopsis([Domain.of_size(4)] * 2, order=2)
        with pytest.raises(ValueError, match="attributes"):
            syn.insert((1, 2, 3))

    def test_empty_batch_is_noop(self):
        syn = CosineSynopsis(Domain.of_size(5), order=2)
        syn.insert_batch(np.empty((0, 1)))
        assert syn.count == 0

    def test_a0_is_one_after_any_updates(self, rng):
        syn = CosineSynopsis(Domain.of_size(20), order=6)
        syn.insert_batch(rng.integers(0, 20, size=(50, 1)))
        assert syn.coefficients[0] == pytest.approx(1.0)


class TestFromCounts:
    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            CosineSynopsis.from_counts(Domain.of_size(5), np.zeros(6), order=2)

    def test_categorical_domain(self):
        d = Domain.categorical(["a", "b", "c"])
        syn = CosineSynopsis.from_counts(d, np.array([3.0, 2.0, 1.0]), order=3)
        assert syn.count == 6
        syn.insert(("a",))
        assert syn.count == 7


class TestMergeAndTruncate:
    def test_merge_equals_union_stream(self, rng):
        d = Domain.of_size(25)
        r1 = rng.integers(0, 25, size=(80, 1))
        r2 = rng.integers(0, 25, size=(60, 1))
        a = CosineSynopsis(d, order=8)
        a.insert_batch(r1)
        b = CosineSynopsis(d, order=8)
        b.insert_batch(r2)
        union = CosineSynopsis(d, order=8)
        union.insert_batch(np.concatenate([r1, r2]))
        merged = a + b
        np.testing.assert_allclose(merged.coefficients, union.coefficients, atol=1e-12)
        assert merged.count == 140

    def test_merge_incompatible_rejected(self):
        a = CosineSynopsis(Domain.of_size(5), order=2)
        b = CosineSynopsis(Domain.of_size(6), order=2)
        with pytest.raises(ValueError, match="incompatible"):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge("not a synopsis")  # type: ignore[arg-type]

    def test_truncated_matches_fresh_build(self, rng):
        doms = [Domain.of_size(20)] * 2
        counts = random_counts(rng, 20, 20)
        big = CosineSynopsis.from_counts(doms, counts, order=10)
        small = big.truncated(order=4)
        fresh = CosineSynopsis.from_counts(doms, counts, order=4)
        np.testing.assert_allclose(small.coefficients, fresh.coefficients, atol=1e-12)
        assert small.count == big.count

    def test_truncated_by_budget(self, rng):
        big = CosineSynopsis.from_counts(
            Domain.of_size(50), random_counts(rng, 50), order=40
        )
        small = big.truncated(budget=10)
        assert small.num_coefficients == 10

    def test_truncated_cannot_grow(self, rng):
        syn = CosineSynopsis.from_counts(
            Domain.of_size(20), random_counts(rng, 20), order=5
        )
        with pytest.raises(ValueError, match="grow"):
            syn.truncated(order=10)


class TestDenseTensorAndReconstruction:
    def test_dense_tensor_places_coefficients(self, rng):
        doms = [Domain.of_size(10)] * 2
        syn = CosineSynopsis.from_counts(doms, random_counts(rng, 10, 10), order=4)
        dense = syn.dense_tensor()
        assert dense.shape == (4, 4)
        assert dense[0, 0] == pytest.approx(1.0)
        assert dense[3, 3] == 0.0  # truncated away (3 + 3 > order - 1)

    def test_reconstruct_counts_exact_at_full_order(self, rng):
        d = Domain.of_size(16)
        counts = random_counts(rng, 16)
        syn = CosineSynopsis.from_counts(d, counts, order=16)
        np.testing.assert_allclose(syn.reconstruct_counts(), counts, atol=1e-8)

    def test_reconstruct_counts_2d_exact_at_full_order(self, rng):
        doms = [Domain.of_size(8), Domain.of_size(8)]
        counts = random_counts(rng, 8, 8)
        syn = CosineSynopsis.from_counts(doms, counts, order=8, truncation="full")
        np.testing.assert_allclose(syn.reconstruct_counts(), counts, atol=1e-8)


class TestSerialization:
    def test_roundtrip(self, rng):
        doms = [Domain.integer_range(5, 24), Domain.of_size(10)]
        syn = CosineSynopsis.from_counts(doms, random_counts(rng, 20, 10), budget=30)
        clone = CosineSynopsis.from_dict(syn.to_dict())
        np.testing.assert_allclose(clone.coefficients, syn.coefficients)
        assert clone.count == syn.count
        assert clone.domains == syn.domains

    def test_roundtrip_categorical(self):
        d = Domain.categorical(["x", "y"])
        syn = CosineSynopsis.from_counts(d, np.array([1.0, 2.0]), order=2)
        clone = CosineSynopsis.from_dict(syn.to_dict())
        assert clone.domains[0].is_categorical

    def test_corrupted_payload_rejected(self, rng):
        syn = CosineSynopsis.from_counts(
            Domain.of_size(10), random_counts(rng, 10), order=5
        )
        payload = syn.to_dict()
        payload["sums"] = payload["sums"][:-1]
        with pytest.raises(ValueError, match="does not match"):
            CosineSynopsis.from_dict(payload)


class TestHelpers:
    def test_synopses_for_budget(self):
        synopses = synopses_for_budget(
            [Domain.of_size(50), [Domain.of_size(50)] * 2], budget=10
        )
        assert [s.ndim for s in synopses] == [1, 2]
        assert all(s.num_coefficients <= 10 for s in synopses)
