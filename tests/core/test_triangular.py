"""Tests for triangular coefficient truncation (section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triangular import (
    full_count,
    full_indices,
    order_for_budget,
    scatter_to_dense,
    triangular_count,
    triangular_indices,
)


class TestCounts:
    @pytest.mark.parametrize(
        "order,ndim,expected",
        [(1, 1, 1), (5, 1, 5), (3, 2, 6), (4, 3, 20), (10, 2, 55)],
    )
    def test_triangular_count_formula(self, order, ndim, expected):
        assert triangular_count(order, ndim) == expected

    def test_paper_storage_ratios(self):
        # Section 3.2: ~50%, 17%, 4% of m^d survive for d = 2, 3, 4.
        m = 64
        for d, approx in [(2, 0.5), (3, 1 / 6), (4, 1 / 24)]:
            ratio = triangular_count(m, d) / full_count(m, d)
            assert ratio == pytest.approx(approx, rel=0.15)

    def test_enumeration_matches_count(self):
        for order, ndim in [(1, 1), (4, 1), (5, 2), (4, 3), (3, 4)]:
            assert triangular_indices(order, ndim).shape == (
                triangular_count(order, ndim),
                ndim,
            )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            triangular_count(0, 1)
        with pytest.raises(ValueError):
            triangular_count(1, 0)
        with pytest.raises(ValueError):
            triangular_indices(0, 2)
        with pytest.raises(ValueError):
            full_indices(2, 0)


class TestEnumeration:
    def test_indices_satisfy_triangular_condition(self):
        idx = triangular_indices(6, 3)
        assert np.all(idx.sum(axis=1) <= 5)
        assert np.all(idx >= 0)

    def test_indices_are_unique(self):
        idx = triangular_indices(7, 2)
        assert len({tuple(row) for row in idx}) == idx.shape[0]

    def test_one_dimensional_is_prefix(self):
        np.testing.assert_array_equal(triangular_indices(4, 1)[:, 0], [0, 1, 2, 3])

    def test_lexicographic_order(self):
        idx = triangular_indices(4, 2)
        as_tuples = [tuple(r) for r in idx]
        assert as_tuples == sorted(as_tuples)

    def test_smaller_order_is_subset(self):
        big = {tuple(r) for r in triangular_indices(8, 2)}
        small = {tuple(r) for r in triangular_indices(5, 2)}
        assert small <= big

    def test_full_indices_cover_grid(self):
        idx = full_indices(3, 2)
        assert idx.shape == (9, 2)
        assert len({tuple(r) for r in idx}) == 9


class TestBudget:
    def test_order_for_budget_exact_fit(self):
        # C(5+2-1, 2) = 15 coefficients at order 5, d = 2.
        assert order_for_budget(15, 2) == 5

    def test_order_for_budget_rounds_down(self):
        assert order_for_budget(14, 2) == 4

    def test_order_for_budget_full_grid(self):
        assert order_for_budget(27, 3, truncation="full") == 3
        assert order_for_budget(26, 3, truncation="full") == 2

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            order_for_budget(0, 1)

    def test_budget_of_one_always_fits_order_one(self):
        # C(d, d) = 1: a single coefficient (the mean) fits any arity.
        for ndim in (1, 2, 3, 4):
            assert order_for_budget(1, ndim) == 1

    def test_unknown_truncation_rejected(self):
        with pytest.raises(ValueError, match="unknown truncation"):
            order_for_budget(10, 2, truncation="circular")

    @pytest.mark.parametrize("truncation", ["triangular", "full"])
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_search_matches_the_linear_scan(self, ndim, truncation):
        """The doubling-and-bisection search returns the one-step scan's order."""
        counter = triangular_count if truncation == "triangular" else full_count
        order = 1  # the one-step scan, kept as the reference, over budgets 1, 2, ...
        for budget in [*range(1, 3000), 4096, 10_000, 65_536]:
            while counter(order + 1, ndim) <= budget:
                order += 1
            assert order_for_budget(budget, ndim, truncation) == order, budget

    @settings(max_examples=50, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=5000), ndim=st.integers(1, 4))
    def test_order_for_budget_is_maximal(self, budget, ndim):
        order = order_for_budget(budget, ndim)
        assert triangular_count(order, ndim) <= budget
        assert triangular_count(order + 1, ndim) > budget


class TestScatter:
    def test_scatter_roundtrip(self, rng):
        idx = triangular_indices(5, 2)
        values = rng.normal(size=idx.shape[0])
        dense = scatter_to_dense(idx, values, 5)
        assert dense.shape == (5, 5)
        np.testing.assert_array_equal(dense[idx[:, 0], idx[:, 1]], values)

    def test_scatter_zeroes_truncated_entries(self):
        idx = triangular_indices(3, 2)
        dense = scatter_to_dense(idx, np.ones(idx.shape[0]), 3)
        assert dense[2, 2] == 0.0 and dense[1, 2] == 0.0

    def test_scatter_rejects_overflow_index(self):
        with pytest.raises(ValueError, match="exceeds"):
            scatter_to_dense(np.array([[3]]), np.array([1.0]), 3)

    def test_scatter_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            scatter_to_dense(np.array([[0], [1]]), np.array([1.0]), 2)
