"""Tests for the skimmed sketch."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import skimmed
from repro.sketches.basic import AGMSSketch, estimate_join_size, median
from repro.sketches.hashing import HASH_BLOCK_CELLS, SignFamily
from repro.sketches.skimmed import (
    estimate_frequencies,
    estimate_join_size_skimmed,
    estimate_multijoin_size_skimmed,
    skim_dense_frequencies,
    skim_threshold,
)


def make_pair(counts_a, counts_b, size=100, s1=20, s2=5, seed=31):
    n = len(counts_a)
    fam = SignFamily(n, s1 * s2, seed=seed)
    a = AGMSSketch.from_counts(fam, np.asarray(counts_a, dtype=float), s1, s2)
    b = AGMSSketch.from_counts(fam, np.asarray(counts_b, dtype=float), s1, s2)
    return a, b, fam


class TestFrequencyEstimation:
    def test_heavy_hitter_recovered(self, rng):
        n = 200
        counts = rng.integers(0, 5, n).astype(float)
        counts[42] = 5000.0
        fam = SignFamily(n, 100, seed=1)
        sk = AGMSSketch.from_counts(fam, counts, 20, 5)
        f_hat = estimate_frequencies(sk, fam.sign_matrix().astype(float))
        assert f_hat[42] == pytest.approx(5000.0, rel=0.2)
        assert np.argmax(f_hat) == 42

    def test_requires_single_attribute(self, rng):
        fams = [SignFamily(10, 15, seed=i) for i in range(2)]
        sk = AGMSSketch.from_counts(fams, rng.integers(0, 3, (10, 10)).astype(float), 5, 3)
        with pytest.raises(ValueError, match="single-attribute"):
            estimate_frequencies(sk, fams[0].sign_matrix().astype(float))


class TestSkimming:
    def test_threshold_scales_with_noise_floor(self, rng):
        n = 300
        counts = rng.integers(0, 5, n).astype(float)
        fam = SignFamily(n, 200, seed=2)
        narrow = AGMSSketch.from_counts(fam, counts, 40, 5)
        wide_fam = SignFamily(n, 500, seed=2)
        wide = AGMSSketch.from_counts(wide_fam, counts, 100, 5)
        # More averaging -> lower noise floor -> lower threshold.
        assert skim_threshold(wide) < skim_threshold(narrow)

    def test_dense_values_skimmed_residual_small(self, rng):
        n = 150
        counts = rng.integers(0, 4, n).astype(float)
        counts[[10, 99]] = [8000.0, 6000.0]
        fam = SignFamily(n, 125, seed=3)
        sk = AGMSSketch.from_counts(fam, counts, 25, 5)
        signs = fam.sign_matrix().astype(float)
        dense, residual = skim_dense_frequencies(sk, signs)
        assert dense[10] > 0 and dense[99] > 0
        # residual atoms should be far smaller than the original atoms
        assert np.abs(residual).max() < np.abs(sk.atoms).max() * 0.25

    def test_no_dense_values_leaves_sketch_unchanged(self, rng):
        n = 400
        counts = rng.integers(0, 3, n).astype(float)
        fam = SignFamily(n, 125, seed=4)
        sk = AGMSSketch.from_counts(fam, counts, 25, 5)
        signs = fam.sign_matrix().astype(float)
        dense, residual = skim_dense_frequencies(sk, signs, threshold=1e12)
        assert np.count_nonzero(dense) == 0
        np.testing.assert_array_equal(residual, sk.atoms)


class TestSkimmedJoin:
    def test_reduces_to_basic_without_dense_values(self, rng):
        n = 300
        c1 = rng.integers(0, 3, n).astype(float)
        c2 = rng.integers(0, 3, n).astype(float)
        a, b, _ = make_pair(c1, c2, seed=5)
        skim = estimate_join_size_skimmed(a, b, threshold_factor=1e9)
        basic = estimate_join_size(a, b)
        assert skim.estimate == pytest.approx(basic, rel=1e-9)
        assert skim.extra_dense_space == 0

    def test_beats_basic_on_heavy_hitters(self, rng):
        # The skimmed sketch's raison d'etre: dense frequencies no longer
        # contribute variance.  Compare mean absolute error over seeds.
        n = 200
        c1 = rng.integers(0, 4, n).astype(float)
        c2 = rng.integers(0, 4, n).astype(float)
        c1[13] = 20_000.0
        c2[77] = 15_000.0
        actual = float(c1 @ c2)
        basic_err, skim_err = [], []
        for seed in range(25):
            a, b, _ = make_pair(c1, c2, seed=seed)
            basic_err.append(abs(estimate_join_size(a, b) - actual))
            skim_err.append(abs(estimate_join_size_skimmed(a, b).estimate - actual))
        assert np.mean(skim_err) < np.mean(basic_err)

    def test_decomposition_sums_to_estimate(self, rng):
        n = 150
        c1 = rng.integers(0, 4, n).astype(float)
        c1[5] = 9000.0
        c2 = rng.integers(0, 4, n).astype(float)
        c2[5] = 7000.0
        a, b, _ = make_pair(c1, c2, seed=6)
        r = estimate_join_size_skimmed(a, b)
        assert r.estimate == pytest.approx(
            r.dense_dense + r.dense_residual + r.residual_dense + r.residual_residual
        )
        assert r.dense_values_a >= 1 and r.dense_values_b >= 1

    def test_dense_dense_term_dominant_for_aligned_heavy_hitters(self, rng):
        n = 150
        c1 = np.ones(n)
        c2 = np.ones(n)
        c1[50] = 50_000.0
        c2[50] = 40_000.0
        a, b, _ = make_pair(c1, c2, seed=7)
        r = estimate_join_size_skimmed(a, b)
        assert r.dense_dense > 0.9 * r.estimate

    def test_incompatible_sketches_rejected(self, rng):
        n = 60
        c = rng.integers(0, 4, n).astype(float)
        a = AGMSSketch.from_counts(SignFamily(n, 15, seed=1), c, 5, 3)
        b = AGMSSketch.from_counts(SignFamily(n, 15, seed=2), c, 5, 3)
        with pytest.raises(ValueError, match="share a sign family"):
            estimate_join_size_skimmed(a, b)

    def test_multiattribute_rejected(self, rng):
        fams = [SignFamily(10, 15, seed=i) for i in range(2)]
        two_d = AGMSSketch.from_counts(
            fams, rng.integers(0, 3, (10, 10)).astype(float), 5, 3
        )
        with pytest.raises(ValueError, match="single-attribute"):
            estimate_join_size_skimmed(two_d, two_d)


class TestTinyBudgetFallback:
    def test_small_sketch_falls_back_to_basic(self, rng):
        # Below MIN_MEANS_FOR_SKIMMING the frequency estimates are noise;
        # the estimator must degrade to the basic AGMS estimate.
        n = 100
        c1 = rng.integers(0, 5, n).astype(float)
        c1[3] = 5000.0
        c2 = rng.integers(0, 5, n).astype(float)
        c2[3] = 5000.0
        fam = SignFamily(n, 10, seed=9)
        a = AGMSSketch.from_counts(fam, c1, 10, 1)
        b = AGMSSketch.from_counts(fam, c2, 10, 1)
        result = estimate_join_size_skimmed(a, b)
        assert result.estimate == pytest.approx(estimate_join_size(a, b))
        assert result.extra_dense_space == 0

    def test_small_chain_falls_back_to_basic(self, rng):
        from repro.sketches.basic import estimate_multijoin_size

        n = 50
        t1 = rng.integers(0, 5, n).astype(float)
        t2 = rng.integers(0, 2, (n, n)).astype(float)
        t3 = rng.integers(0, 5, n).astype(float)
        fa = SignFamily(n, 10, seed=1)
        fb = SignFamily(n, 10, seed=2)
        sketches = [
            AGMSSketch.from_counts(fa, t1, 10, 1),
            AGMSSketch.from_counts([fa, fb], t2, 10, 1),
            AGMSSketch.from_counts(fb, t3, 10, 1),
        ]
        assert estimate_multijoin_size_skimmed(sketches) == pytest.approx(
            estimate_multijoin_size(sketches)
        )


class TestSkimmedMultiJoin:
    def _chain(self, rng, seed, heavy=False):
        n = 60
        t1 = rng.integers(0, 4, n).astype(float)
        t2 = rng.integers(0, 2, (n, n)).astype(float)
        t3 = rng.integers(0, 4, n).astype(float)
        if heavy:
            t1[7] = 5000.0
            t3[9] = 4000.0
        fa = SignFamily(n, 100, seed=seed * 2)
        fb = SignFamily(n, 100, seed=seed * 2 + 1)
        sketches = [
            AGMSSketch.from_counts(fa, t1, 20, 5),
            AGMSSketch.from_counts([fa, fb], t2, 20, 5),
            AGMSSketch.from_counts(fb, t3, 20, 5),
        ]
        actual = float(np.einsum("a,ab,b->", t1, t2, t3))
        return sketches, actual

    def test_two_relation_chain_delegates_to_single_join(self, rng):
        n = 80
        c1 = rng.integers(0, 4, n).astype(float)
        c2 = rng.integers(0, 4, n).astype(float)
        a, b, _ = make_pair(c1, c2, seed=8)
        assert estimate_multijoin_size_skimmed([a, b]) == pytest.approx(
            estimate_join_size_skimmed(a, b).estimate
        )

    def test_chain_skim_no_worse_than_basic_with_heavy_ends(self, rng):
        # Chain sketch estimates are high-variance by nature; the claim to
        # check is comparative: skimming the heavy end relations should not
        # lose to the basic estimator on median relative error.
        from repro.sketches.basic import estimate_multijoin_size

        skim_errs, basic_errs = [], []
        for seed in range(15):
            sketches, actual = self._chain(rng, seed, heavy=True)
            skim = estimate_multijoin_size_skimmed(sketches)
            basic = estimate_multijoin_size(sketches)
            skim_errs.append(abs(skim - actual) / actual)
            basic_errs.append(abs(basic - actual) / actual)
        assert np.median(skim_errs) <= np.median(basic_errs) * 1.5

    def test_chain_without_dense_matches_basic(self, rng):
        from repro.sketches.basic import estimate_multijoin_size

        sketches, _ = self._chain(rng, 3, heavy=False)
        skim = estimate_multijoin_size_skimmed(sketches, threshold_factor=1e9)
        basic = estimate_multijoin_size(sketches)
        assert skim == pytest.approx(basic, rel=1e-9)

    def test_multiattribute_ends_rejected(self, rng):
        fams = [SignFamily(10, 15, seed=i) for i in range(2)]
        two_d = AGMSSketch.from_counts(
            fams, rng.integers(0, 3, (10, 10)).astype(float), 5, 3
        )
        with pytest.raises(ValueError, match="end relations"):
            estimate_multijoin_size_skimmed([two_d, two_d, two_d])

    def test_needs_two_sketches(self, rng):
        a, _, _ = make_pair(rng.integers(0, 3, 50).astype(float),
                            rng.integers(0, 3, 50).astype(float))
        with pytest.raises(ValueError, match="at least two"):
            estimate_multijoin_size_skimmed([a])


def elementwise_frequencies(sketch, sign_matrix):
    """``f_hat`` as the median of the element-wise group means of ``X_i xi_i(v)``."""
    per_value = sign_matrix.T * sketch.atoms  # (n, S)
    groups = per_value.reshape(-1, sketch.num_medians, sketch.num_means)
    return median(groups.mean(axis=2), axis=1)


def elementwise_project(sign_matrix, dense):
    """``sign_matrix @ dense`` over the skimmed values in one product."""
    held = np.flatnonzero(dense)
    return sign_matrix[:, held] @ dense[held]


@contextlib.contextmanager
def elementwise_reads():
    """Run the skimmed estimators on the element-wise formulas instead."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skimmed, "estimate_frequencies", elementwise_frequencies)
        patch.setattr(skimmed, "_project", elementwise_project)
        yield


@contextlib.contextmanager
def float_sign_matrices():
    """Make every family hand out a float64 copy of its sign matrix."""
    int8_view = SignFamily.sign_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SignFamily, "sign_matrix", lambda self: int8_view(self).astype(float))
        yield


@st.composite
def skimmed_cases(draw):
    """A geometry whose block width is a few dozen values, and heavy-tailed counts.

    Returns ``(s1, s2, seed, ends, inner)``: two count vectors over a
    domain of ``n`` values, the last relation's counts over 7 values, and
    a chain's inner ``(n, 7)`` tensor.
    """
    s1 = draw(st.integers(16, 60))
    s2 = draw(st.sampled_from([1, 2, 3, 5]))
    width = HASH_BLOCK_CELLS // (s1 * s2)
    n = draw(st.integers(1, 3 * width + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ends = [rng.integers(0, 5, size) for size in (n, n, 7)]
    for c in ends:
        c[rng.integers(0, c.shape[0], 3)] = rng.integers(1_000, 100_000, 3)
    return s1, s2, seed, ends, rng.integers(0, 3, (n, 7))


class TestBlockedReads:
    @settings(max_examples=40, deadline=None)
    @given(skimmed_cases(), st.booleans())
    def test_frequencies_and_skims_equal_the_elementwise_formula(self, case, as_float):
        s1, s2, seed, (counts, _, _), _ = case
        family = SignFamily(counts.shape[0], s1 * s2, seed=seed)
        signs = family.sign_matrix().astype(float) if as_float else family.sign_matrix()
        sketch = AGMSSketch.from_counts(family, counts, s1, s2)
        f_hat = estimate_frequencies(sketch, signs)
        assert f_hat.tobytes() == elementwise_frequencies(sketch, signs).tobytes()
        for factor in (0.5, 2.0):
            dense, residual = skim_dense_frequencies(sketch, signs, threshold_factor=factor)
            with elementwise_reads():
                want_dense, want_residual = skim_dense_frequencies(
                    sketch, signs, threshold_factor=factor
                )
            assert dense.tobytes() == want_dense.tobytes()
            assert residual.tobytes() == want_residual.tobytes()
            projected = skimmed._project(signs, dense)
            assert projected.tobytes() == elementwise_project(signs, dense).tobytes()
        # every value held: the projection crosses every block boundary
        held = counts.astype(float)
        assert skimmed._project(signs, held).tobytes() == elementwise_project(signs, held).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(skimmed_cases(), st.booleans())
    def test_joins_equal_the_elementwise_formula(self, case, as_float):
        s1, s2, seed, (c1, c2, c3), inner = case
        with float_sign_matrices() if as_float else contextlib.nullcontext():
            first = SignFamily(c1.shape[0], s1 * s2, seed=seed)
            second = SignFamily(7, s1 * s2, seed=seed + 1)
            a = AGMSSketch.from_counts(first, c1, s1, s2)
            b = AGMSSketch.from_counts(first, c2, s1, s2)
            chain = [
                a,
                AGMSSketch.from_counts([first, second], inner, s1, s2),
                AGMSSketch.from_counts(second, c3, s1, s2),
            ]
            for factor in (0.5, 2.0):
                pair = estimate_join_size_skimmed(a, b, threshold_factor=factor)
                path = estimate_multijoin_size_skimmed(chain, threshold_factor=factor)
                with elementwise_reads():
                    assert pair == estimate_join_size_skimmed(a, b, threshold_factor=factor)
                    assert path == estimate_multijoin_size_skimmed(chain, threshold_factor=factor)


class TestMemory:
    def test_skimmed_join_reads_signs_block_by_block(self):
        # At n = 16,384 and S = 255, the (n, S) float64 products of the
        # element-wise formula took 33.6 MB; the blocked reads hold the
        # group means, one block of float signs and the median's copies.
        n = 16_384
        family = SignFamily(n, 255, seed=6)
        rng = np.random.default_rng(6)
        c1, c2 = rng.integers(0, 50, n), rng.integers(0, 50, n)
        c1[7], c2[9] = 100_000, 80_000
        a = AGMSSketch.from_counts(family, c1, 51, 5)
        b = AGMSSketch.from_counts(family, c2, 51, 5)
        tracemalloc.start()
        try:
            result = estimate_join_size_skimmed(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.dense_values_a >= 1 and result.dense_values_b >= 1
        assert peak < 3 << 20
