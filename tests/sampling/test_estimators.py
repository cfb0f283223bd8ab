"""Tests for sampling-based join size estimators."""

import numpy as np
import pytest

from repro.sampling.estimators import (
    estimate_chain_join_size_samples,
    estimate_join_size_bernoulli,
    estimate_join_size_reservoir,
)
from repro.sampling.reservoir import BernoulliSample, ReservoirSample


def bernoulli_from_values(values, p, seed, size=None):
    """A sample of 1-d grid indices; the grid spans the values by default."""
    s = BernoulliSample(p, (size or max(values) + 1,), seed=seed)
    s.insert_many(values)
    return s


def full_sample(tensor, seed):
    """A p = 1 sample holding every tuple of an integer count tensor."""
    return BernoulliSample.from_counts(tensor, 1.0, np.random.default_rng(seed))


class TestBernoulliJoin:
    def test_full_samples_are_exact(self, rng):
        v1 = rng.integers(0, 20, 500)
        v2 = rng.integers(0, 20, 400)
        s1 = bernoulli_from_values(v1, 1.0, 1, size=20)
        s2 = bernoulli_from_values(v2, 1.0, 2, size=20)
        actual = float(
            np.bincount(v1, minlength=20) @ np.bincount(v2, minlength=20)
        )
        result = estimate_join_size_bernoulli(s1, s2)
        assert result.estimate == pytest.approx(actual)
        assert result.std_error == 0.0

    def test_unbiased_over_many_draws(self, rng):
        v1 = rng.integers(0, 30, 2000)
        v2 = rng.integers(0, 30, 2000)
        actual = float(
            np.bincount(v1, minlength=30) @ np.bincount(v2, minlength=30)
        )
        estimates = []
        for seed in range(40):
            s1 = bernoulli_from_values(v1, 0.2, seed * 2, size=30)
            s2 = bernoulli_from_values(v2, 0.2, seed * 2 + 1, size=30)
            estimates.append(estimate_join_size_bernoulli(s1, s2).estimate)
        assert np.mean(estimates) == pytest.approx(actual, rel=0.1)

    def test_confidence_interval_contains_estimate(self, rng):
        v = rng.integers(0, 10, 500)
        s1 = bernoulli_from_values(v, 0.5, 1, size=10)
        s2 = bernoulli_from_values(v, 0.5, 2, size=10)
        result = estimate_join_size_bernoulli(s1, s2)
        lo, hi = result.confidence_interval()
        assert lo <= result.estimate <= hi

    def test_disjoint_samples_estimate_zero(self):
        s1 = bernoulli_from_values([1] * 50, 1.0, 1, size=3)
        s2 = bernoulli_from_values([2] * 50, 1.0, 2, size=3)
        assert estimate_join_size_bernoulli(s1, s2).estimate == 0.0

    def test_samples_must_share_a_one_dimensional_grid(self):
        with pytest.raises(ValueError, match="do not join"):
            estimate_join_size_bernoulli(BernoulliSample(1.0, (3,)), BernoulliSample(1.0, (4,)))
        with pytest.raises(ValueError, match="do not join"):
            estimate_join_size_bernoulli(BernoulliSample(1.0, (3, 3)), BernoulliSample(1.0, (3, 3)))


class TestReservoirJoin:
    def test_empty_reservoir_estimates_zero(self):
        r1 = ReservoirSample(5, seed=1)
        r2 = ReservoirSample(5, seed=2)
        assert estimate_join_size_reservoir(r1, r2).estimate == 0.0

    def test_full_capture_is_exact(self, rng):
        v1 = rng.integers(0, 10, 50)
        v2 = rng.integers(0, 10, 60)
        r1 = ReservoirSample(100, seed=1)
        r1.insert_many(v1)
        r2 = ReservoirSample(100, seed=2)
        r2.insert_many(v2)
        actual = float(np.bincount(v1, minlength=10) @ np.bincount(v2, minlength=10))
        assert estimate_join_size_reservoir(r1, r2).estimate == pytest.approx(actual)

    def test_roughly_unbiased(self, rng):
        v1 = rng.integers(0, 15, 3000)
        v2 = rng.integers(0, 15, 3000)
        actual = float(np.bincount(v1, minlength=15) @ np.bincount(v2, minlength=15))
        estimates = []
        for seed in range(40):
            r1 = ReservoirSample(300, seed=seed * 2)
            r1.insert_many(v1)
            r2 = ReservoirSample(300, seed=seed * 2 + 1)
            r2.insert_many(v2)
            estimates.append(estimate_join_size_reservoir(r1, r2).estimate)
        assert np.mean(estimates) == pytest.approx(actual, rel=0.15)


class TestChainJoin:
    def test_exact_with_full_samples(self, rng):
        n = 10
        t1 = rng.integers(0, 4, n)
        t2 = rng.integers(0, 3, (n, n))
        t3 = rng.integers(0, 4, n)
        actual = float(np.einsum("a,ab,b->", t1.astype(float), t2.astype(float), t3.astype(float)))

        samples = [full_sample(t, seed) for seed, t in enumerate((t1, t2, t3))]
        est = estimate_chain_join_size_samples(samples)
        assert est == pytest.approx(actual)

    def test_scaling_by_probabilities(self):
        samples = [BernoulliSample(0.5, (4,), seed=1), BernoulliSample(0.25, (4,), seed=2)]
        for sample, count in zip(samples, (2, 4)):
            sample.cells, sample.counts = np.array([3]), np.array([count])
        est = estimate_chain_join_size_samples(samples)
        assert est == pytest.approx(2 * 4 / (0.5 * 0.25))

    def test_cross_counts_past_int64_stay_exact(self):
        # 2**21 copies of one value in each of three relations: 2**63 triples.
        big = 1 << 21
        t1, t2, t3 = np.array([big]), np.array([[big]]), np.array([big])
        samples = [full_sample(t, seed) for seed, t in enumerate((t1, t2, t3))]
        assert estimate_chain_join_size_samples(samples) == float(big**3)
        assert estimate_join_size_bernoulli(samples[0], samples[2]).estimate == float(big**2)

    def test_mismatched_lengths_rejected(self):
        samples = [BernoulliSample(0.5, (3,)), BernoulliSample(0.5, (4,))]
        with pytest.raises(ValueError, match="differ in length"):
            estimate_chain_join_size_samples(samples)

    def test_single_relation_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            estimate_chain_join_size_samples([BernoulliSample(0.5, (3,))])

    def test_inner_relation_must_be_binary(self):
        samples = [BernoulliSample(1.0, (3,), seed=i) for i in range(3)]
        with pytest.raises(ValueError, match="two attributes"):
            estimate_chain_join_size_samples(samples)
