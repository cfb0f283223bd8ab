"""Tests for the 4-wise independent sign families."""

import numpy as np
import pytest

from repro.sketches.hashing import MERSENNE_P, SignFamily


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SignFamily(0, 10, seed=1)
        with pytest.raises(ValueError):
            SignFamily(10, 0, seed=1)
        with pytest.raises(ValueError):
            SignFamily(int(MERSENNE_P), 10, seed=1)

    def test_deterministic_given_seed(self):
        a = SignFamily(100, 20, seed=7)
        b = SignFamily(100, 20, seed=7)
        np.testing.assert_array_equal(a.sign_matrix(), b.sign_matrix())

    def test_different_seeds_differ(self):
        a = SignFamily(100, 20, seed=7)
        b = SignFamily(100, 20, seed=8)
        assert not np.array_equal(a.sign_matrix(), b.sign_matrix())

    def test_prefix_stability(self):
        # The experiment harness slices big sketches into smaller ones; the
        # first S' functions of a family must be exactly the functions of a
        # smaller family with the same seed.
        big = SignFamily(64, 50, seed=3)
        small = SignFamily(64, 12, seed=3)
        np.testing.assert_array_equal(big.sign_matrix()[:12], small.sign_matrix())

    def test_compatible_with(self):
        a = SignFamily(50, 10, seed=1)
        assert a.compatible_with(SignFamily(50, 10, seed=1))
        assert not a.compatible_with(SignFamily(50, 10, seed=2))
        assert not a.compatible_with(SignFamily(51, 10, seed=1))
        assert not a.compatible_with(SignFamily(50, 11, seed=1))


class TestSignProperties:
    def test_signs_are_plus_minus_one(self):
        fam = SignFamily(200, 30, seed=5)
        signs = fam.sign_matrix()
        assert set(np.unique(signs)) == {-1, 1}

    def test_signs_shape(self):
        fam = SignFamily(100, 8, seed=5)
        assert fam.signs(np.array([0, 5, 99])).shape == (8, 3)

    def test_out_of_domain_rejected(self):
        fam = SignFamily(10, 4, seed=5)
        with pytest.raises(ValueError, match="outside"):
            fam.signs(np.array([10]))
        with pytest.raises(ValueError, match="outside"):
            fam.signs(np.array([-1]))

    def test_sign_matrix_chunking_consistent(self):
        # A table filled piecemeal by scattered signs() calls, then completed
        # by sign_matrix(), holds exactly a fresh family's matrix.
        fam = SignFamily(1000, 6, seed=9)
        order = np.random.default_rng(0).permutation(1000)
        for chunk in np.array_split(order[:700], 9):
            fam.signs(chunk)
        np.testing.assert_array_equal(fam.sign_matrix(), SignFamily(1000, 6, seed=9).sign_matrix())

    def test_signs_roughly_balanced(self):
        # Each function's mean sign over a large domain should be near 0.
        fam = SignFamily(20_000, 10, seed=11)
        means = fam.sign_matrix().astype(float).mean(axis=1)
        assert np.all(np.abs(means) < 0.05)

    def test_pairwise_decorrelated(self):
        # E[xi(u) xi(v)] ~ 0 for u != v, averaged over many functions.
        fam = SignFamily(50, 4000, seed=13)
        signs = fam.sign_matrix().astype(float)
        corr = (signs[:, 3] * signs[:, 17]).mean()
        assert abs(corr) < 0.08

    def test_fourth_moment_close_to_independent(self):
        # 4-wise independence: E[xi(a)xi(b)xi(c)xi(d)] ~ 0 for distinct values.
        fam = SignFamily(50, 4000, seed=17)
        signs = fam.sign_matrix().astype(float)
        moment = (signs[:, 1] * signs[:, 5] * signs[:, 23] * signs[:, 40]).mean()
        assert abs(moment) < 0.08

    def test_hash_values_below_prime(self):
        fam = SignFamily(1000, 5, seed=19)
        values = fam.hash_values(np.arange(1000))
        assert values.max() < int(MERSENNE_P)
