"""Unit behaviour of the join-bound calculator on hand-built degree vectors.

Small, fully worked examples where the exact join size and every
candidate bound can be computed by hand: the calculator must never go
below the exact size, must hit the known-tight candidates, and must
handle the structural edge cases (cartesian products, disconnected
components, self-loops, empty relations) the engine can hand it.
"""

import math

import numpy as np
import pytest

from repro.bounds.calculator import HOLDER_PAIRS, JoinBoundCalculator
from repro.bounds.degree import DegreeSketch


def sketch_of(counts):
    sketch = DegreeSketch(len(counts))
    sketch.load_counts(np.asarray(counts))
    return sketch


def two_way(r_counts, s_counts):
    return JoinBoundCalculator(
        2,
        [((0, 0), (1, 0))],
        {(0, 0): sketch_of(r_counts), (1, 0): sketch_of(s_counts)},
    )


class TestSingleValueWorstCase:
    def test_bound_covers_every_single_value_pair(self):
        # the paper's section 4.3.2 worst case: R holds n1 copies of one
        # value and S holds n2, so the join holds exactly n1 * n2 tuples;
        # every Hölder candidate is exact here, and none may round below
        for n1 in range(1, 40):
            for n2 in range(1, 40):
                bound = two_way([0, n1, 0], [0, n2, 0]).upper_bound()
                assert bound >= n1 * n2, (n1, n2, bound)


class TestTwoWayBounds:
    def test_bound_dominates_the_exact_join_size(self):
        r, s = [3, 1, 0, 2], [1, 4, 2, 0]
        exact = sum(a * b for a, b in zip(r, s))
        bound = two_way(r, s).upper_bound()
        assert bound >= exact

    def test_uniform_sides_meet_the_cauchy_schwarz_candidate(self):
        # all-uniform degree vectors: L2(R) * L2(S) is exactly the join
        # size, so the bound must be exact here
        r = [2, 2, 2, 2]
        exact = sum(a * a for a in r)
        assert two_way(r, r).upper_bound() == pytest.approx(exact)

    def test_max_degree_candidate_wins_on_disjoint_supports(self):
        # no overlapping values: the true join is empty; the bound cannot
        # know that, but it must not exceed N_r * maxdeg_s
        r, s = [5, 5, 0, 0], [0, 0, 1, 1]
        bound = two_way(r, s).upper_bound()
        assert bound <= 10 * 1

    def test_min_over_roots_beats_a_fixed_root(self):
        # rooted at R the tree bound is N_R * maxdeg_S = 100 * 1;
        # rooted at S it is N_S * maxdeg_R = 2 * 100.  The calculator
        # must take the min over both (plus the Hölder refinements).
        r, s = [100, 0], [1, 1]
        bound = two_way(r, s).upper_bound()
        assert bound <= 100.0

    def test_empty_relation_zeroes_the_bound(self):
        assert two_way([0, 0], [3, 4]).upper_bound() == 0.0


class TestStructure:
    def test_cartesian_product_of_unjoined_relations_is_exact(self):
        calc = JoinBoundCalculator(
            2, [], {(0, 0): sketch_of([2, 1]), (1, 0): sketch_of([4])}
        )
        assert calc.upper_bound() == pytest.approx(3 * 4)

    def test_disconnected_components_multiply(self):
        # R-S joined, T alone: bound(R, S) * N_T
        calc = JoinBoundCalculator(
            3,
            [((0, 0), (1, 0))],
            {
                (0, 0): sketch_of([2, 2]),
                (1, 0): sketch_of([2, 2]),
                (2, 0): sketch_of([5, 0]),
            },
        )
        pair = two_way([2, 2], [2, 2]).upper_bound()
        assert calc.upper_bound() == pytest.approx(pair * 5)

    def test_self_loop_predicates_are_dropped_soundly(self):
        # a same-relation predicate only filters; with it dropped the
        # relation is unjoined and contributes its cardinality
        calc = JoinBoundCalculator(
            1, [((0, 0), (0, 1))], {(0, 0): sketch_of([3, 2])}
        )
        assert calc.upper_bound() == pytest.approx(5.0)

    def test_three_way_chain_uses_interior_degrees(self):
        # R.A = S.A, S.B = T.B with S having both axes: the tree rooted
        # at R is N_R * maxdeg_S(A) * maxdeg_T(B)
        calc = JoinBoundCalculator(
            3,
            [((0, 0), (1, 0)), ((1, 1), (2, 0))],
            {
                (0, 0): sketch_of([1, 1, 1]),  # N_R = 3
                (1, 0): sketch_of([2, 0, 0]),  # maxdeg_S(A) = 2
                (1, 1): sketch_of([2, 0]),  # maxdeg_S(B) = 2
                (2, 0): sketch_of([1, 1]),  # maxdeg_T(B) = 1
            },
        )
        # exact join: S has 2 tuples (a=0, b=0); R matches a=0 once;
        # T matches b=0 once -> 1 * 2 * 1 = 2
        assert calc.upper_bound() >= 2
        assert calc.upper_bound() <= 3 * 2 * 1

    def test_parallel_edges_take_the_tighter_degree(self):
        # R and S joined on two attribute pairs: either single edge is a
        # sound relaxation, so the bound may use the smaller max degree
        calc = JoinBoundCalculator(
            2,
            [((0, 0), (1, 0)), ((0, 1), (1, 1))],
            {
                (0, 0): sketch_of([4, 0]),
                (0, 1): sketch_of([2, 2]),
                (1, 0): sketch_of([9, 0]),  # maxdeg 9 on the first edge
                (1, 1): sketch_of([8, 1]),  # maxdeg 8 on the second
            },
        )
        # rooted at R: N_R=4 times min(maxdeg_S over the parallel edges)=8,
        # and the Hölder pairs can only improve on that
        assert calc.upper_bound() <= 4 * 8


class TestValidation:
    def test_every_relation_needs_a_sketch(self):
        with pytest.raises(ValueError, match="relation 1 has no degree sketch"):
            JoinBoundCalculator(2, [], {(0, 0): sketch_of([1])})

    def test_every_edge_slot_needs_a_sketch(self):
        with pytest.raises(ValueError, match="has no degree sketch"):
            JoinBoundCalculator(
                2,
                [((0, 0), (1, 1))],
                {(0, 0): sketch_of([1]), (1, 0): sketch_of([1])},
            )

    def test_at_least_one_relation(self):
        with pytest.raises(ValueError, match="at least one relation"):
            JoinBoundCalculator(0, [], {})


class TestHolderFamily:
    def test_pairs_are_conjugate_exponents(self):
        for p, q in HOLDER_PAIRS:
            if math.isinf(p):
                assert q == 1.0
            elif math.isinf(q):
                assert p == 1.0
            else:
                assert 1 / p + 1 / q == pytest.approx(1.0)

    def test_each_holder_candidate_dominates_the_join(self):
        # brute-force check: for random degree vectors, every Hölder
        # candidate L_p(r) * L_q(s) is >= sum(r * s)
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = rng.integers(0, 6, size=8)
            s = rng.integers(0, 6, size=8)
            exact = float(np.dot(r, s))
            for p, q in HOLDER_PAIRS:
                candidate = sketch_of(r).lp(p) * sketch_of(s).lp(q)
                assert candidate >= exact - 1e-9
