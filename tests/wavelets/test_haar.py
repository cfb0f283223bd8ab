"""Tests for the Haar wavelet synopsis baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.wavelets.haar import (
    HaarSynopsis,
    estimate_join_size,
    haar_transform,
    inverse_haar_transform,
)


class TestTransform:
    def test_roundtrip(self, rng):
        values = rng.normal(size=64)
        np.testing.assert_allclose(
            inverse_haar_transform(haar_transform(values)), values, atol=1e-10
        )

    def test_roundtrip_with_padding(self, rng):
        values = rng.normal(size=37)
        out = inverse_haar_transform(haar_transform(values), n=37)
        np.testing.assert_allclose(out, values, atol=1e-10)

    def test_orthonormal_parseval(self, rng):
        values = rng.normal(size=128)
        coeffs = haar_transform(values)
        assert float(coeffs @ coeffs) == pytest.approx(float(values @ values))

    def test_constant_vector_single_coefficient(self):
        coeffs = haar_transform(np.full(32, 5.0))
        assert coeffs[0] == pytest.approx(5.0 * np.sqrt(32))
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_known_small_case(self):
        # [a, b] -> [(a+b)/sqrt2, (a-b)/sqrt2]
        np.testing.assert_allclose(
            haar_transform(np.array([3.0, 1.0])),
            [4.0 / np.sqrt(2), 2.0 / np.sqrt(2)],
        )

    def test_non_power_of_two_coefficients_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            inverse_haar_transform(np.ones(6))

    def test_multidim_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            haar_transform(np.ones((4, 4)))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=70),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_property(self, n, seed):
        values = np.random.default_rng(seed).integers(0, 50, n).astype(float)
        out = inverse_haar_transform(haar_transform(values), n=n)
        np.testing.assert_allclose(out, values, atol=1e-8)


class TestSynopsis:
    def test_streaming_matches_from_counts(self, rng):
        d = Domain.of_size(50)
        values = rng.integers(0, 50, size=300)
        streamed = HaarSynopsis(d, budget=20)
        for v in values:
            streamed.update(int(v))
        batch = HaarSynopsis.from_counts(d, np.bincount(values, minlength=50), 20)
        np.testing.assert_array_equal(
            streamed.state_dict()["details"], batch.state_dict()["details"]
        )
        assert streamed.count == batch.count == 300

    def test_deletion_inverts_insertion(self, rng):
        d = Domain.of_size(32)
        syn = HaarSynopsis(d, budget=10)
        for v in rng.integers(0, 32, 50):
            syn.update(int(v))
        reference = syn.state_dict()["details"]
        syn.update(7)
        syn.update(7, weight=-1)
        np.testing.assert_array_equal(syn.state_dict()["details"], reference)

    def test_reconstruction_exact_with_full_budget(self, rng):
        d = Domain.of_size(64)
        counts = rng.integers(0, 9, 64).astype(float)
        syn = HaarSynopsis.from_counts(d, counts, budget=64)
        np.testing.assert_allclose(syn.reconstruct_counts(), counts, atol=1e-9)

    def test_top_coefficients_count(self, rng):
        d = Domain.of_size(64)
        counts = rng.integers(1, 9, 64).astype(float)
        syn = HaarSynopsis.from_counts(d, counts, budget=5)
        idx, vals = syn.top_coefficients()
        assert len(idx) == len(vals) == 5
        # they really are the largest
        all_coeffs = np.abs(haar_transform(counts))
        assert set(idx) == set(np.argsort(all_coeffs)[::-1][:5])

    def test_threshold_ties_keep_the_lowest_indices(self):
        # coefficient 0 is sqrt(2); details 4..7 are all 1/sqrt(2)
        d = Domain.of_size(8)
        syn = HaarSynopsis.from_counts(d, np.array([1, 0, 1, 0, 1, 0, 1, 0]), budget=3)
        idx, vals = syn.top_coefficients()
        np.testing.assert_array_equal(idx, [0, 4, 5])
        np.testing.assert_allclose(vals, [np.sqrt(2), 1 / np.sqrt(2), 1 / np.sqrt(2)])
        # the join reads the same selection: detail 4 is kept, so the
        # single tuple at 0 on the other side is matched in full
        other = HaarSynopsis.from_counts(d, np.array([1, 0, 0, 0, 0, 0, 0, 0]), budget=8)
        assert estimate_join_size(syn, other) == pytest.approx(1.0, rel=1e-12)
        assert estimate_join_size(other, syn) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            HaarSynopsis(Domain.of_size(8), 0)

    def test_counts_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            HaarSynopsis.from_counts(Domain.of_size(8), np.ones(9), 4)

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    def test_non_integral_counts_rejected(self, bad):
        counts = np.ones(8)
        counts[3] = bad
        with pytest.raises(ValueError, match="finite integers"):
            HaarSynopsis.from_counts(Domain.of_size(8), counts, 4)


class TestJoinEstimation:
    def test_exact_with_full_budget(self, rng):
        n = 64
        d = Domain.of_size(n)
        c1 = rng.integers(0, 9, n).astype(float)
        c2 = rng.integers(0, 9, n).astype(float)
        a = HaarSynopsis.from_counts(d, c1, budget=n)
        b = HaarSynopsis.from_counts(d, c2, budget=n)
        assert estimate_join_size(a, b) == pytest.approx(float(c1 @ c2), rel=1e-9)

    def test_smooth_data_few_coefficients(self):
        n = 256
        x = np.arange(n)
        c = np.rint(100 * np.exp(-((x - 130) / 40.0) ** 2) + 10)
        d = Domain.of_size(n)
        a = HaarSynopsis.from_counts(d, c, budget=40)
        b = HaarSynopsis.from_counts(d, c, budget=40)
        actual = float(c @ c)
        assert estimate_join_size(a, b) == pytest.approx(actual, rel=0.1)

    def test_mismatched_domains_rejected(self, rng):
        a = HaarSynopsis.from_counts(Domain.of_size(8), np.ones(8), 4)
        b = HaarSynopsis.from_counts(Domain.of_size(16), np.ones(16), 4)
        with pytest.raises(ValueError, match="unified"):
            estimate_join_size(a, b)
