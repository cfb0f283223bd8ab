"""Tests for join size estimation from cosine synopses (section 4.2)."""

import numpy as np
import pytest

from repro.core.join import (
    JoinPredicate,
    choose_budget,
    estimate_chain_join_size,
    estimate_join_size,
    estimate_join_size_by_group,
    estimate_multijoin_size,
    estimate_self_join_size,
)
from repro.core.normalization import Domain
from repro.core.synopsis import CosineSynopsis
from repro.fastpath import set_backend
from repro.streams.exact import exact_multijoin_size, exact_self_join_size


def syn(counts, order=None, **kw):
    counts = np.asarray(counts, dtype=float)
    doms = [Domain.of_size(s) for s in counts.shape]
    return CosineSynopsis.from_counts(
        doms, counts, order=order or max(counts.shape), **kw
    )


class TestSingleJoin:
    def test_exact_with_full_coefficients(self, rng):
        c1 = rng.integers(0, 20, 30).astype(float)
        c2 = rng.integers(0, 20, 30).astype(float)
        est = estimate_join_size(syn(c1), syn(c2))
        assert est == pytest.approx(float(c1 @ c2), rel=1e-9)

    def test_uniform_distributions_need_one_coefficient(self):
        # Section 4.3.1: a0 alone gives a zero-error estimate on uniform data.
        c = np.full(50, 7.0)
        a = syn(c, order=1)
        b = syn(c, order=1)
        est = estimate_join_size(a, b)
        assert est == pytest.approx(float(c @ c), rel=1e-9)

    def test_different_orders_use_common_prefix(self, rng):
        c1 = rng.integers(0, 20, 40).astype(float)
        c2 = rng.integers(0, 20, 40).astype(float)
        small = estimate_join_size(syn(c1, order=5), syn(c2, order=9))
        symmetric = estimate_join_size(syn(c1, order=5), syn(c2, order=5))
        assert small == pytest.approx(symmetric, rel=1e-9)

    def test_mismatched_domains_rejected(self, rng):
        a = syn(rng.integers(0, 5, 10).astype(float))
        b = syn(rng.integers(0, 5, 11).astype(float))
        with pytest.raises(ValueError, match="unified domain"):
            estimate_join_size(a, b)

    def test_mismatched_grids_rejected(self, rng):
        c = rng.integers(0, 5, 10).astype(float)
        a = syn(c)
        b = CosineSynopsis.from_counts(Domain.of_size(10), c, order=10, grid="endpoint")
        with pytest.raises(ValueError, match="grids"):
            estimate_join_size(a, b)

    def test_multiattribute_synopsis_rejected(self, rng):
        two_d = syn(rng.integers(0, 5, (6, 6)).astype(float))
        one_d = syn(rng.integers(0, 5, 6).astype(float))
        with pytest.raises(ValueError, match="single-attribute"):
            estimate_join_size(two_d, one_d)

    def test_truncation_error_shrinks_with_order(self, rng):
        # On smooth data the estimate improves monotonically-ish with m;
        # check the bracketing property at three orders.
        n = 200
        x = np.arange(n)
        c1 = (np.exp(-((x - 80) / 30.0) ** 2) * 1000 + 5).astype(float)
        c2 = (np.exp(-((x - 100) / 40.0) ** 2) * 1000 + 5).astype(float)
        actual = float(c1 @ c2)
        errors = [
            abs(estimate_join_size(syn(c1, order=m), syn(c2, order=m)) - actual)
            for m in (4, 16, 64)
        ]
        assert errors[2] < errors[0]
        assert errors[2] < actual * 0.01


class TestSelfJoin:
    def test_self_join_exact_with_full_coefficients(self, rng):
        c = rng.integers(0, 20, 25).astype(float)
        est = estimate_self_join_size(syn(c))
        assert est == pytest.approx(exact_self_join_size(c), rel=1e-9)

    def test_self_join_requires_one_dimension(self, rng):
        with pytest.raises(ValueError, match="single-attribute"):
            estimate_self_join_size(syn(rng.integers(0, 5, (4, 4)).astype(float)))


class TestMultiJoin:
    def test_two_join_chain_exact_at_full_order(self, rng):
        n = 15
        t1 = rng.integers(0, 6, n).astype(float)
        t2 = rng.integers(0, 3, (n, n)).astype(float)
        t3 = rng.integers(0, 6, n).astype(float)
        synopses = [syn(t1), syn(t2, truncation="full"), syn(t3)]
        est = estimate_chain_join_size(synopses)
        act = exact_multijoin_size([t1, t2, t3], [((0, 0), (1, 0)), ((1, 1), (2, 0))])
        assert est == pytest.approx(act, rel=1e-9)

    def test_three_join_chain_exact_at_full_order(self, rng):
        n = 8
        t1 = rng.integers(0, 4, n).astype(float)
        t2 = rng.integers(0, 3, (n, n)).astype(float)
        t3 = rng.integers(0, 3, (n, n)).astype(float)
        t4 = rng.integers(0, 4, n).astype(float)
        synopses = [
            syn(t1),
            syn(t2, truncation="full"),
            syn(t3, truncation="full"),
            syn(t4),
        ]
        est = estimate_chain_join_size(synopses)
        act = exact_multijoin_size(
            [t1, t2, t3, t4],
            [((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (3, 0))],
        )
        assert est == pytest.approx(act, rel=1e-9)

    def test_cyclic_join_graph_supported(self, rng):
        # R1(A,B) joined to R2(A,B) on both attributes: multi-dim Parseval.
        n = 10
        t1 = rng.integers(0, 4, (n, n)).astype(float)
        t2 = rng.integers(0, 4, (n, n)).astype(float)
        est = estimate_multijoin_size(
            [syn(t1, truncation="full"), syn(t2, truncation="full")],
            [((0, 0), (1, 0)), ((0, 1), (1, 1))],
        )
        act = float((t1 * t2).sum())
        assert est == pytest.approx(act, rel=1e-9)

    def test_unjoined_axis_is_marginalized(self, rng):
        # R1(A, C) joined to R2(A) only on A: C marginalizes away.
        n = 12
        t1 = rng.integers(0, 4, (n, n)).astype(float)
        t2 = rng.integers(0, 4, n).astype(float)
        est = estimate_multijoin_size(
            [syn(t1, truncation="full"), syn(t2)], [((0, 0), (1, 0))]
        )
        act = float(t1.sum(axis=1) @ t2)
        assert est == pytest.approx(act, rel=1e-9)

    def test_duplicate_slot_rejected(self, rng):
        n = 6
        synopses = [syn(rng.integers(0, 4, n).astype(float)) for _ in range(3)]
        with pytest.raises(ValueError, match="two predicates"):
            estimate_multijoin_size(
                synopses, [((0, 0), (1, 0)), ((0, 0), (2, 0))]
            )

    def test_out_of_range_slots_rejected(self, rng):
        synopses = [syn(rng.integers(0, 4, 6).astype(float))] * 2
        with pytest.raises(ValueError, match="relation"):
            estimate_multijoin_size(synopses, [((0, 0), (5, 0))])
        with pytest.raises(ValueError, match="axis"):
            estimate_multijoin_size(synopses, [((0, 3), (1, 0))])

    def test_empty_inputs_rejected(self, rng):
        a = syn(rng.integers(0, 4, 6).astype(float))
        with pytest.raises(ValueError, match="at least one"):
            estimate_multijoin_size([], [((0, 0), (1, 0))])
        with pytest.raises(ValueError, match="at least one"):
            estimate_multijoin_size([a, a], [])
        with pytest.raises(ValueError, match="at least two"):
            estimate_chain_join_size([a])

    def test_chain_wrapper_matches_explicit_predicates(self, rng):
        n = 10
        t1 = rng.integers(0, 5, n).astype(float)
        t2 = rng.integers(0, 3, (n, n)).astype(float)
        t3 = rng.integers(0, 5, n).astype(float)
        synopses = [syn(t1, order=6), syn(t2, order=6), syn(t3, order=6)]
        wrapped = estimate_chain_join_size(synopses)
        explicit = estimate_multijoin_size(
            synopses,
            [JoinPredicate((0, 0), (1, 0)), JoinPredicate((1, 1), (2, 0))],
        )
        assert wrapped == pytest.approx(explicit, rel=1e-12)

    def test_two_relation_chain_matches_single_join(self, rng):
        c1 = rng.integers(0, 9, 20).astype(float)
        c2 = rng.integers(0, 9, 20).astype(float)
        s1, s2 = syn(c1, order=7), syn(c2, order=7)
        assert estimate_chain_join_size([s1, s2]) == pytest.approx(
            estimate_join_size(s1, s2), rel=1e-12
        )


class TestGroupByJoin:
    def test_exact_at_full_order(self, rng):
        nG, nA = 12, 15
        t1 = rng.integers(0, 5, (nG, nA)).astype(float)
        t2 = rng.integers(0, 5, nA).astype(float)
        g = syn(t1, order=15, truncation="full")
        o = syn(t2, order=nA)
        per_group = estimate_join_size_by_group(g, o)
        np.testing.assert_allclose(per_group, t1 @ t2, atol=1e-8)

    def test_group_axis_one(self, rng):
        nA, nG = 10, 14
        t1 = rng.integers(0, 5, (nA, nG)).astype(float)
        t2 = rng.integers(0, 5, nA).astype(float)
        g = syn(t1, order=14, truncation="full")
        o = syn(t2, order=nA)
        per_group = estimate_join_size_by_group(g, o, group_axis=1)
        np.testing.assert_allclose(per_group, t1.T @ t2, atol=1e-8)

    def test_sum_of_groups_matches_plain_join(self, rng):
        n = 16
        t1 = rng.integers(0, 5, (n, n)).astype(float)
        t2 = rng.integers(0, 5, n).astype(float)
        g = syn(t1, order=8, truncation="full")
        o = syn(t2, order=8)
        per_group = estimate_join_size_by_group(g, o)
        plain = estimate_multijoin_size([g, o], [((0, 1), (1, 0))])
        assert per_group.sum() == pytest.approx(plain, rel=1e-9)

    @pytest.mark.parametrize("grid", ["midpoint", "endpoint"])
    @pytest.mark.parametrize("group_axis", [0, 1])
    def test_synthesis_matches_the_reference_kernel(self, rng, grid, group_axis):
        # the midpoint grid synthesizes the groups with one inverse DCT, the
        # endpoint grid with a basis table; the reference kernel tables both
        shape = (300, 40) if group_axis == 0 else (40, 300)
        t1 = rng.zipf(1.4, shape).astype(float) % 9
        t2 = rng.integers(0, 5, 40).astype(float)
        g = CosineSynopsis.from_counts(
            [Domain.of_size(n) for n in shape], t1, budget=400, grid=grid
        )
        o = syn(t2, order=40, grid=grid)
        fast = estimate_join_size_by_group(g, o, group_axis=group_axis)
        previous = set_backend("reference")
        try:
            reference = estimate_join_size_by_group(g, o, group_axis=group_axis)
        finally:
            set_backend(previous)
        assert fast.shape == (300,)
        np.testing.assert_allclose(fast, reference, rtol=1e-9, atol=1e-9 * np.abs(reference).max())

    def test_arity_validation(self, rng):
        n = 8
        one_d = syn(rng.integers(0, 5, n).astype(float))
        two_d = syn(rng.integers(0, 5, (n, n)).astype(float), truncation="full")
        with pytest.raises(ValueError, match="two-attribute"):
            estimate_join_size_by_group(one_d, one_d)
        with pytest.raises(ValueError, match="single-attribute"):
            estimate_join_size_by_group(two_d, two_d)
        with pytest.raises(ValueError, match="group_axis"):
            estimate_join_size_by_group(two_d, one_d, group_axis=2)


class TestChooseBudget:
    def test_uniform_data_needs_one_coefficient(self):
        c = np.full(100, 5.0)
        a = syn(c, order=100)
        assert choose_budget(a, a) == 1

    def test_smooth_data_converges_early(self):
        n = 300
        x = np.arange(n)
        c1 = 100 * np.exp(-((x - 120) / 40.0) ** 2) + 10
        c2 = 100 * np.exp(-((x - 160) / 35.0) ** 2) + 10
        m = choose_budget(syn(c1, order=n), syn(c2, order=n), tolerance=0.01)
        assert m < n // 4

    def test_single_value_data_needs_nearly_everything(self):
        n = 128
        c = np.zeros(n)
        c[50] = 1000.0
        m = choose_budget(syn(c, order=n), syn(c, order=n), tolerance=0.01)
        assert m > n // 2

    def test_recommended_budget_delivers_tolerance(self, rng):
        n = 200
        c1 = rng.integers(0, 20, n).astype(float)
        c2 = rng.integers(0, 20, n).astype(float)
        a, b = syn(c1, order=n), syn(c2, order=n)
        tolerance = 0.05
        m = choose_budget(a, b, tolerance)
        full = estimate_join_size(a, b)
        truncated = estimate_join_size(a.truncated(order=m), b.truncated(order=m))
        assert abs(truncated - full) / abs(full) <= tolerance + 1e-9

    def test_validation(self, rng):
        one = syn(rng.integers(1, 5, 10).astype(float))
        two = syn(rng.integers(1, 5, (6, 6)).astype(float))
        with pytest.raises(ValueError, match="single-attribute"):
            choose_budget(two, one)
        with pytest.raises(ValueError, match="tolerance"):
            choose_budget(one, one, tolerance=0.0)
