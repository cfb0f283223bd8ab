"""Tests for the basic AGMS sketch."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sketches.basic import (
    AGMSSketch,
    estimate_join_size,
    estimate_join_size_with_spread,
    estimate_multijoin_size,
    estimate_self_join_size,
    make_sketch_families,
    median_of_means,
    slice_sketch,
    split_budget,
)
from repro.sketches.hashing import SignFamily


@pytest.fixture
def family():
    return SignFamily(200, 60, seed=21)


class TestSplitBudget:
    def test_default_geometry(self):
        s1, s2 = split_budget(500)
        assert (s1, s2) == (100, 5)

    def test_small_budgets_fewer_medians(self):
        assert split_budget(20)[1] == 1
        assert split_budget(50)[1] == 3
        assert split_budget(100)[1] == 5

    def test_explicit_medians_forced_odd(self):
        s1, s2 = split_budget(100, num_medians=4)
        assert s2 == 3

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            split_budget(0)
        with pytest.raises(ValueError):
            split_budget(10, num_medians=11)


class TestMaintenance:
    def test_update_stream_equals_from_counts(self, family, rng):
        values = rng.integers(0, 200, size=150)
        streamed = AGMSSketch(family, 20, 3)
        for v in values:
            streamed.update(int(v))
        counts = np.bincount(values, minlength=200).astype(float)
        batch = AGMSSketch.from_counts(family, counts, 20, 3)
        np.testing.assert_array_equal(streamed.atoms, batch.atoms)
        assert streamed.count == batch.count == 150

    def test_update_batch_equals_loop(self, family, rng):
        values = rng.integers(0, 200, size=100)
        a = AGMSSketch(family, 20, 3)
        a.update_batch(values, chunk=7)
        b = AGMSSketch(family, 20, 3)
        for v in values:
            b.update(int(v))
        np.testing.assert_array_equal(a.atoms, b.atoms)

    def test_deletion_is_negative_update(self, family):
        sk = AGMSSketch(family, 20, 3)
        sk.update(5)
        sk.update(9)
        sk.update(5, weight=-1)
        only_nine = AGMSSketch(family, 20, 3)
        only_nine.update(9)
        np.testing.assert_array_equal(sk.atoms, only_nine.atoms)
        assert sk.count == 1

    def test_two_dimensional_stream_equals_batch(self, rng):
        fa = SignFamily(30, 45, seed=1)
        fb = SignFamily(20, 45, seed=2)
        rows = np.stack(
            [rng.integers(0, 30, size=80), rng.integers(0, 20, size=80)], axis=1
        )
        streamed = AGMSSketch([fa, fb], 15, 3)
        streamed.update_batch(rows)
        counts = np.zeros((30, 20))
        np.add.at(counts, (rows[:, 0], rows[:, 1]), 1.0)
        batch = AGMSSketch.from_counts([fa, fb], counts, 15, 3)
        np.testing.assert_array_equal(streamed.atoms, batch.atoms)

    def test_domains_with_more_cells_than_int64_numbers(self, rng):
        # four attributes of 10^5 values span 10^20 cells
        fams = [SignFamily(100_000, 9, seed=i) for i in range(4)]
        distinct = rng.integers(0, 100_000, size=(25, 4))
        rows = np.concatenate([distinct, distinct[:10], distinct[:3]])
        batched = AGMSSketch(fams, 3, 3)
        batched.update_batch(rows, chunk=4)
        batched.update_batch(distinct[:3], weight=-1)
        per_row = AGMSSketch(fams, 3, 3)
        for row in np.concatenate([distinct, distinct[:10]]):
            per_row.update([int(v) for v in row])
        np.testing.assert_array_equal(batched.atoms, per_row.atoms)
        assert batched.count == per_row.count == 35

    def test_three_dimensional_from_counts(self, rng):
        fams = [SignFamily(6, 9, seed=i) for i in range(3)]
        counts = rng.integers(0, 4, size=(6, 6, 6)).astype(float)
        sk = AGMSSketch.from_counts(fams, counts, 3, 3)
        # cross-check one atomic sketch by brute force
        s0 = [f.sign_matrix().astype(float)[0] for f in fams]
        expected = np.einsum("abc,a,b,c->", counts, *s0)
        assert sk.atoms[0] == pytest.approx(expected)

    def test_family_size_mismatch_rejected(self, family):
        with pytest.raises(ValueError, match="functions"):
            AGMSSketch(family, 10, 3)  # 30 != 60

    def test_wrong_arity_rejected(self, family):
        sk = AGMSSketch(family, 20, 3)
        with pytest.raises(ValueError, match="attribute indices"):
            sk.update([1, 2])


class TestEstimation:
    def test_median_of_means_geometry(self):
        products = np.arange(12, dtype=float)
        est = median_of_means(products, num_means=4, num_medians=3)
        # groups [0..3],[4..7],[8..11] -> means 1.5, 5.5, 9.5 -> median 5.5
        assert est == 5.5

    def test_median_of_means_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            median_of_means(np.arange(10.0), 4, 3)

    def test_join_estimate_unbiased(self, rng):
        # Average over many independent sketch draws approaches the truth.
        n = 100
        c1 = rng.integers(0, 10, n).astype(float)
        c2 = rng.integers(0, 10, n).astype(float)
        actual = float(c1 @ c2)
        estimates = []
        for seed in range(60):
            fam = SignFamily(n, 64, seed=seed)
            s1 = AGMSSketch.from_counts(fam, c1, 64, 1)
            s2 = AGMSSketch.from_counts(fam, c2, 64, 1)
            estimates.append(estimate_join_size(s1, s2))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.15)

    def test_self_join_estimate_unbiased(self, rng):
        n = 80
        c = rng.integers(0, 10, n).astype(float)
        actual = float(c @ c)
        estimates = []
        for seed in range(60):
            fam = SignFamily(n, 64, seed=seed)
            sk = AGMSSketch.from_counts(fam, c, 64, 1)
            estimates.append(estimate_self_join_size(sk))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.1)

    def test_single_value_stream_exact(self):
        # Section 4.3.2: the sketch's best case — one distinct value — is
        # estimated exactly by every atomic sketch (X = +-N, X1*X2 = N^2).
        fam = SignFamily(50, 15, seed=3)
        counts = np.zeros(50)
        counts[7] = 1000.0
        s1 = AGMSSketch.from_counts(fam, counts, 5, 3)
        s2 = AGMSSketch.from_counts(fam, counts, 5, 3)
        assert estimate_join_size(s1, s2) == pytest.approx(1e6)

    def test_incompatible_families_rejected(self, rng):
        c = rng.integers(0, 5, 40).astype(float)
        s1 = AGMSSketch.from_counts(SignFamily(40, 15, seed=1), c, 5, 3)
        s2 = AGMSSketch.from_counts(SignFamily(40, 15, seed=2), c, 5, 3)
        with pytest.raises(ValueError, match="share a sign family"):
            estimate_join_size(s1, s2)

    def test_multijoin_chain_unbiased(self, rng):
        n = 40
        t1 = rng.integers(0, 5, n).astype(float)
        t2 = rng.integers(0, 3, (n, n)).astype(float)
        t3 = rng.integers(0, 5, n).astype(float)
        actual = float(np.einsum("a,ab,b->", t1, t2, t3))
        estimates = []
        for seed in range(40):
            fa = SignFamily(n, 100, seed=seed * 2)
            fb = SignFamily(n, 100, seed=seed * 2 + 1)
            s1 = AGMSSketch.from_counts(fa, t1, 100, 1)
            s2 = AGMSSketch.from_counts([fa, fb], t2, 100, 1)
            s3 = AGMSSketch.from_counts(fb, t3, 100, 1)
            estimates.append(estimate_multijoin_size([s1, s2, s3]))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.25)

    def test_multijoin_geometry_mismatch_rejected(self, rng):
        fam = SignFamily(20, 15, seed=1)
        c = rng.integers(0, 5, 20).astype(float)
        a = AGMSSketch.from_counts(fam, c, 5, 3)
        fam2 = SignFamily(20, 15, seed=1)
        b = AGMSSketch.from_counts(fam2, c, 15, 1)
        with pytest.raises(ValueError, match="geometry"):
            estimate_multijoin_size([a, b])

    def test_multijoin_needs_two_sketches(self, family, rng):
        sk = AGMSSketch.from_counts(family, rng.integers(0, 5, 200).astype(float), 20, 3)
        with pytest.raises(ValueError, match="at least two"):
            estimate_multijoin_size([sk])


class TestSlicing:
    def test_slice_matches_fresh_small_sketch(self, rng):
        n = 150
        counts = rng.integers(0, 9, n).astype(float)
        fam_big = SignFamily(n, 60, seed=5)
        big = AGMSSketch.from_counts(fam_big, counts, 20, 3)
        sliced = slice_sketch(big, 5, 3)
        fam_small = SignFamily(n, 15, seed=5)
        fresh = AGMSSketch.from_counts(fam_small, counts, 5, 3)
        np.testing.assert_array_equal(sliced.atoms, fresh.atoms)
        assert sliced.count == big.count

    def test_slice_cannot_grow(self, family, rng):
        sk = AGMSSketch.from_counts(family, rng.integers(0, 5, 200).astype(float), 20, 3)
        with pytest.raises(ValueError, match="grow"):
            slice_sketch(sk, 30, 3)


class TestFamilyHelper:
    def test_make_sketch_families(self):
        families, s1, s2 = make_sketch_families(
            [Domain.of_size(10), Domain.of_size(20)], budget=100, seed=4
        )
        assert set(families) == {0, 1}
        assert families[0].num_functions == s1 * s2
        assert families[0].domain_size == 10
        assert families[1].domain_size == 20


class TestSpread:
    def test_estimate_matches_plain_median_of_means(self, rng):
        n = 100
        c1 = rng.integers(0, 10, n).astype(float)
        c2 = rng.integers(0, 10, n).astype(float)
        fam = SignFamily(n, 60, seed=4)
        a = AGMSSketch.from_counts(fam, c1, 20, 3)
        b = AGMSSketch.from_counts(fam, c2, 20, 3)
        estimate, spread = estimate_join_size_with_spread(a, b)
        assert estimate == pytest.approx(estimate_join_size(a, b))
        assert spread >= 0

    def test_spread_zero_on_single_value_streams(self):
        # the sketch's best case: every atomic sketch agrees exactly
        n = 50
        counts = np.zeros(n)
        counts[7] = 500.0
        fam = SignFamily(n, 15, seed=5)
        a = AGMSSketch.from_counts(fam, counts, 5, 3)
        b = AGMSSketch.from_counts(fam, counts, 5, 3)
        estimate, spread = estimate_join_size_with_spread(a, b)
        assert estimate == pytest.approx(500.0**2)
        assert spread == pytest.approx(0.0, abs=1e-9)

    def test_spread_flags_hard_regimes(self, rng):
        # uniform data (the sketch worst case): spread is a large fraction
        # of the estimate, warning the caller
        n = 2_000
        counts = np.full(n, 10.0)
        fam = SignFamily(n, 60, seed=6)
        a = AGMSSketch.from_counts(fam, counts, 20, 3)
        b = AGMSSketch.from_counts(fam, counts, 20, 3)
        estimate, spread = estimate_join_size_with_spread(a, b)
        assert spread > 0.02 * abs(estimate)

    def test_incompatible_rejected(self, rng):
        c = rng.integers(0, 5, 30).astype(float)
        a = AGMSSketch.from_counts(SignFamily(30, 15, seed=1), c, 5, 3)
        b = AGMSSketch.from_counts(SignFamily(30, 15, seed=2), c, 5, 3)
        with pytest.raises(ValueError, match="share"):
            estimate_join_size_with_spread(a, b)
