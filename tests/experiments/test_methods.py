"""Tests for the experiment method adapters."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.experiments.methods import (
    BasicSketchMethod,
    CosineMethod,
    HistogramMethod,
    SamplingMethod,
    SkimmedSketchMethod,
    WaveletMethod,
    default_methods,
    extended_methods,
)


def single_join_data(rng, n=100):
    c1 = rng.integers(0, 20, n).astype(float)
    c2 = rng.integers(0, 20, n).astype(float)
    return [c1, c2], [[Domain.of_size(n)], [Domain.of_size(n)]]


def chain_data(rng, n=40):
    t1 = rng.integers(0, 6, n).astype(float)
    t2 = rng.integers(0, 3, (n, n)).astype(float)
    t3 = rng.integers(0, 6, n).astype(float)
    doms = [[Domain.of_size(n)], [Domain.of_size(n)] * 2, [Domain.of_size(n)]]
    return [t1, t2, t3], doms


class TestChainValidation:
    @pytest.mark.parametrize(
        "method", [CosineMethod(), BasicSketchMethod(), SamplingMethod()]
    )
    def test_single_relation_rejected(self, method, rng):
        rels, doms = single_join_data(rng)
        with pytest.raises(ValueError, match="at least two"):
            method.prepare(rels[:1], doms[:1], 50, rng)

    def test_mismatched_domains_rejected(self, rng):
        rels, _ = single_join_data(rng)
        doms = [[Domain.of_size(100)], [Domain.of_size(99)]]
        with pytest.raises(ValueError, match="differ"):
            CosineMethod().prepare(rels, doms, 50, rng)

    def test_arity_mismatch_rejected(self, rng):
        rels, doms = single_join_data(rng)
        doms = [[Domain.of_size(100)] * 2, [Domain.of_size(100)]]
        with pytest.raises(ValueError, match="arity"):
            CosineMethod().prepare(rels, doms, 50, rng)


class TestCosineMethod:
    def test_estimates_at_multiple_budgets(self, rng):
        rels, doms = single_join_data(rng)
        prepared = CosineMethod().prepare(rels, doms, 100, rng)
        actual = float(rels[0] @ rels[1])
        full = prepared.estimate(100)
        assert full == pytest.approx(actual, rel=1e-9)
        small = prepared.estimate(5)
        assert small != full

    def test_budget_sweep_matches_fresh_builds(self, rng):
        rels, doms = chain_data(rng)
        prepared = CosineMethod().prepare(rels, doms, 200, rng)
        for budget in (10, 50, 200):
            fresh = CosineMethod().prepare(rels, doms, budget, rng)
            assert prepared.estimate(budget) == pytest.approx(
                fresh.estimate(budget), rel=1e-9
            )

    def test_endpoint_grid_variant(self, rng):
        rels, doms = single_join_data(rng)
        prepared = CosineMethod(grid="endpoint").prepare(rels, doms, 50, rng)
        assert np.isfinite(prepared.estimate(50))


class TestSketchMethods:
    def test_budget_sweep_is_prefix_consistent(self, rng):
        # slicing a prepared sketch must equal building at that budget with
        # the same family seeds
        rels, doms = single_join_data(rng)
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        prepared = BasicSketchMethod().prepare(rels, doms, 200, rng_a)
        fresh = BasicSketchMethod().prepare(rels, doms, 100, rng_b)
        assert prepared.estimate(100) == pytest.approx(fresh.estimate(100))

    def test_skimmed_on_chain(self, rng):
        rels, doms = chain_data(rng)
        prepared = SkimmedSketchMethod().prepare(rels, doms, 150, rng)
        assert np.isfinite(prepared.estimate(150))

    def test_basic_reasonable_on_single_join(self, rng):
        rels, doms = single_join_data(rng, n=50)
        actual = float(rels[0] @ rels[1])
        prepared = BasicSketchMethod().prepare(rels, doms, 400, rng)
        assert prepared.estimate(400) == pytest.approx(actual, rel=0.5)


class TestSamplingMethod:
    def test_full_budget_is_exact(self, rng):
        rels, doms = single_join_data(rng, n=30)
        total = int(rels[0].sum())
        prepared = SamplingMethod().prepare(rels, doms, total, rng)
        actual = float(rels[0] @ rels[1])
        assert prepared.estimate(max(total, int(rels[1].sum()))) == pytest.approx(
            actual, rel=1e-9
        )

    def test_estimates_cached_per_budget(self, rng):
        rels, doms = single_join_data(rng)
        prepared = SamplingMethod().prepare(rels, doms, 100, rng)
        assert prepared.estimate(50) == prepared.estimate(50)

    def test_chain_supported(self, rng):
        rels, doms = chain_data(rng)
        prepared = SamplingMethod().prepare(rels, doms, 500, rng)
        assert np.isfinite(prepared.estimate(500))

    @pytest.mark.parametrize(
        "seed, shape, expected",
        [
            (0, "single", [0.0, 8210.08, 10006.035, 10496.58728]),
            (0, "chain", [0.0, 10581.225408, 8246.460000000001, 7699.987999999999]),
            (1, "single", [9894.0, 6332.160000000001, 11551.245, 9727.780800000002]),
            (1, "chain", [0.0, 7995.89376, 11213.45, 10044.632000000001]),
            (2, "single", [36216.16, 4708.100799999999, 8510.7976, 8221.06832]),
            (2, "chain", [36982.159999999996, 12278.07712, 11295.240000000002, 10707.792]),
        ],
    )
    def test_estimates_are_pinned_for_fixed_seeds(self, seed, shape, expected):
        # Values of the per-cell thinning loop this method used to run.
        rng = np.random.default_rng(seed)
        rels, doms = (single_join_data if shape == "single" else chain_data)(rng)
        prepared = SamplingMethod().prepare(rels, doms, 500, rng)
        assert [prepared.estimate(b) for b in (10, 50, 200, 500)] == expected


class TestHistogramMethod:
    def test_single_join_only(self, rng):
        rels, doms = chain_data(rng)
        with pytest.raises(ValueError, match="single joins"):
            HistogramMethod().prepare(rels, doms, 10, rng)

    def test_exact_at_full_buckets(self, rng):
        rels, doms = single_join_data(rng, n=30)
        prepared = HistogramMethod().prepare(rels, doms, 30, rng)
        assert prepared.estimate(30) == pytest.approx(float(rels[0] @ rels[1]))


class TestWaveletMethod:
    def test_single_join_only(self, rng):
        rels, doms = chain_data(rng)
        with pytest.raises(ValueError, match="single joins"):
            WaveletMethod().prepare(rels, doms, 10, rng)

    def test_exact_at_full_budget(self, rng):
        rels, doms = single_join_data(rng, n=64)
        prepared = WaveletMethod().prepare(rels, doms, 64, rng)
        assert prepared.estimate(64) == pytest.approx(
            float(rels[0] @ rels[1]), rel=1e-9
        )

    def test_budget_sweep(self, rng):
        rels, doms = single_join_data(rng, n=64)
        prepared = WaveletMethod().prepare(rels, doms, 64, rng)
        assert np.isfinite(prepared.estimate(8))


class TestMethodFactories:
    def test_default_cast(self):
        names = [m.name for m in default_methods()]
        assert names == ["cosine", "skimmed_sketch", "basic_sketch"]

    def test_extended_cast_adds_sampling(self):
        names = [m.name for m in extended_methods()]
        assert "sample" in names
