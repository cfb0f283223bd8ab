"""Tests for attribute domains and section 4.1 domain unification."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import normalization
from repro.core.normalization import (
    Domain,
    as_rows,
    distinct_cells,
    embed_counts,
    unify_domains,
)


class TestDomainConstruction:
    def test_integer_range_size(self):
        assert Domain.integer_range(10, 19).size == 10

    def test_of_size(self):
        d = Domain.of_size(7)
        assert (d.low, d.high, d.size) == (0, 6, 7)

    def test_empty_integer_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Domain.integer_range(5, 4)

    def test_categorical_basics(self):
        d = Domain.categorical(["red", "green", "blue"])
        assert d.size == 3 and d.is_categorical
        assert d.high is None

    def test_categorical_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Domain.categorical(["a", "a"])

    def test_categorical_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Domain.categorical([])


class TestIndexing:
    def test_integer_indices(self):
        d = Domain.integer_range(100, 109)
        np.testing.assert_array_equal(d.indices_of([100, 105, 109]), [0, 5, 9])

    def test_index_of_single(self):
        assert Domain.integer_range(-5, 5).index_of(0) == 5

    def test_out_of_range_rejected(self):
        d = Domain.of_size(10)
        with pytest.raises(ValueError, match="outside"):
            d.indices_of([3, 10])
        with pytest.raises(ValueError, match="outside"):
            d.indices_of([-1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            Domain.of_size(10).indices_of([1.5])

    def test_categorical_indices(self):
        d = Domain.categorical(["x", "y", "z"])
        np.testing.assert_array_equal(d.indices_of(["z", "x"]), [2, 0])

    def test_categorical_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="not in categorical"):
            Domain.categorical(["x"]).indices_of(["w"])

    @pytest.mark.parametrize(
        "values",
        [
            [3, 10, -1, 0, 9, -6],
            [True, False, 5, 12],
            [np.int64(4), np.uint8(200), np.int8(-1), 7],
            [2.0, 3, 2.5, float("nan"), float("inf"), np.float32(4.0)],
            ["3", 3, b"4"],
            [2**70, 3, -(2**70)],
            [np.uint64(2**64 - 1), 2],
            [np.True_, 3],
        ],
    )
    @pytest.mark.parametrize("domain", [Domain.of_size(10), Domain.integer_range(-5, 5)])
    def test_object_membership_matches_the_value_loop(self, values, domain):
        column = np.empty(len(values), dtype=object)
        column[:] = values
        loop = [
            (
                isinstance(v, (int, np.integer, np.bool_))
                or (isinstance(v, (float, np.floating)) and float(v).is_integer())
            )
            and domain.low <= int(v) <= domain.high
            for v in values
        ]
        assert domain.locate(column)[1].tolist() == loop


class TestAsRows:
    def test_a_mixed_row_after_string_rows_keeps_its_types(self):
        rows = as_rows([("austin", "x"), ("boston", 30)])
        assert rows.dtype == object
        assert rows.tolist() == [["austin", "x"], ["boston", 30]]
        assert isinstance(rows[1, 1], int)

    def test_string_rows_after_a_mixed_first_row_stay_strings(self):
        rows = as_rows([("austin", 30), ("boston", "x"), (b"c", 2.5)])
        assert rows.dtype == object
        assert rows.tolist() == [["austin", 30], ["boston", "x"], [b"c", 2.5]]

    def test_ragged_mixed_rows_are_refused(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            as_rows([("austin", 30), ("boston",)])


class TestPositions:
    def test_midpoint_positions(self):
        d = Domain.of_size(5)
        np.testing.assert_allclose(d.positions_of([0, 4]), [0.1, 0.9])

    def test_endpoint_positions_match_paper_normalization(self):
        # Section 3.1: x_z = (x - min) / (max - min).
        d = Domain.integer_range(0, 4)
        np.testing.assert_allclose(
            d.positions_of([0, 1, 2, 3, 4], kind="endpoint"), [0, 0.25, 0.5, 0.75, 1]
        )

    def test_positions_of_size_one_domain(self):
        d = Domain.integer_range(7, 7)
        np.testing.assert_allclose(d.positions_of([7], kind="endpoint"), [0.5])
        np.testing.assert_allclose(d.positions_of([7], kind="midpoint"), [0.5])

    def test_grid_matches_positions(self):
        d = Domain.integer_range(3, 12)
        np.testing.assert_allclose(
            d.grid("midpoint"), d.positions_of(np.arange(3, 13), "midpoint")
        )


class TestUnification:
    def test_integer_union(self):
        a = Domain.integer_range(0, 10)
        b = Domain.integer_range(5, 20)
        u = unify_domains(a, b)
        assert (u.low, u.high) == (0, 20)

    def test_disjoint_ranges_unify_to_the_hull(self):
        u = unify_domains(Domain.integer_range(0, 3), Domain.integer_range(10, 12))
        assert (u.low, u.high, u.size) == (0, 12, 13)

    def test_unify_is_commutative_in_extent(self):
        a = Domain.integer_range(-3, 7)
        b = Domain.integer_range(2, 15)
        assert unify_domains(a, b) == unify_domains(b, a)

    def test_categorical_union_keeps_left_order(self):
        a = Domain.categorical(["x", "y"])
        b = Domain.categorical(["y", "z"])
        u = unify_domains(a, b)
        np.testing.assert_array_equal(u.indices_of(["x", "y", "z"]), [0, 1, 2])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="cannot unify"):
            unify_domains(Domain.of_size(3), Domain.categorical(["a"]))


class TestEmbedCounts:
    def test_embedding_pads_with_zeros(self):
        orig = Domain.integer_range(5, 7)
        uni = Domain.integer_range(0, 9)
        out = embed_counts(np.array([1, 2, 3]), orig, uni)
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 0, 1, 2, 3, 0, 0])

    def test_embedding_preserves_total(self, rng):
        orig = Domain.integer_range(10, 29)
        uni = unify_domains(orig, Domain.integer_range(0, 49))
        counts = rng.integers(0, 9, size=20)
        assert embed_counts(counts, orig, uni).sum() == counts.sum()

    def test_identity_embedding(self):
        d = Domain.of_size(4)
        np.testing.assert_array_equal(
            embed_counts(np.array([1, 2, 3, 4]), d, d), [1, 2, 3, 4]
        )

    def test_categorical_embedding(self):
        orig = Domain.categorical(["b", "c"])
        uni = Domain.categorical(["a", "b", "c"])
        np.testing.assert_array_equal(embed_counts(np.array([5, 7]), orig, uni), [0, 5, 7])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            embed_counts(np.array([1, 2]), Domain.of_size(3), Domain.of_size(5))

    def test_non_containing_unified_domain_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            embed_counts(
                np.array([1, 2, 3]),
                Domain.integer_range(0, 2),
                Domain.integer_range(1, 5),
            )


@st.composite
def batches(draw):
    """A 1-3-axis grid and a batch of rows on it, sparse or dense, with repeats."""
    shape = tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)))
    size = math.prod(shape)
    rows = draw(
        st.one_of(
            st.integers(0, 3),
            st.integers(0, max(1, size // 8)),  # mostly sorted
            st.integers(min(size // 4, 10_000), 10_000),  # mostly counted
        )
    )
    pool = draw(st.integers(1, size))  # a few hot cells make duplicates
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(0, size, pool)[rng.integers(0, pool, rows)]
    indices = np.stack(np.unravel_index(cells, shape), axis=1).reshape(rows, len(shape))
    return shape, indices


def cells_with(indices, shape, per_row, weights=None):
    """``distinct_cells`` under a given counting threshold."""
    with mock.patch.object(normalization, "COUNT_CELLS_PER_ROW", per_row):
        return distinct_cells(indices, shape, weights)


class TestDistinctCells:
    @settings(max_examples=120, deadline=None)
    @given(batches())
    def test_counting_and_sorting_agree_with_np_unique(self, case):
        shape, indices = case
        flat = np.ravel_multi_index(tuple(indices.T), shape)
        expected = np.unique(flat, return_index=True, return_counts=True)
        for per_row in (0, normalization.COUNT_CELLS_PER_ROW, math.prod(shape)):
            got = cells_with(indices, shape, per_row)
            for want, have in zip(expected, got):
                assert have.dtype == want.dtype
                np.testing.assert_array_equal(have, want)

    @settings(max_examples=60, deadline=None)
    @given(batches(), st.integers(0, 2**32 - 1))
    def test_weighted_counts_sum_the_weights(self, case, seed):
        shape, indices = case
        weights = np.random.default_rng(seed).integers(1, 50, indices.shape[0])
        flat = np.ravel_multi_index(tuple(indices.T), shape)
        cells, first = np.unique(flat, return_index=True)
        sums = np.zeros(cells.shape[0], dtype=np.int64)
        np.add.at(sums, np.searchsorted(cells, flat), weights)
        for per_row in (0, math.prod(shape)):
            got = cells_with(indices, shape, per_row, weights)
            for want, have in zip((cells, first, sums), got):
                assert have.dtype == want.dtype
                np.testing.assert_array_equal(have, want)

    def test_one_row_skips_the_sort(self, monkeypatch):
        monkeypatch.setattr(np, "unique", None)
        cells, first, counts = distinct_cells(np.array([[3, 1]]), [5, 4])
        assert (cells.tolist(), first.tolist(), counts.tolist()) == ([13], [0], [1])
        assert cells.dtype == first.dtype == counts.dtype == np.intp
        _, _, weighted = distinct_cells(np.array([[3, 1]]), [5, 4], np.array([7]))
        assert weighted.tolist() == [7] and weighted.dtype == np.int64

    @pytest.mark.parametrize("rows", [[[5]], [[1], [5]], [[-1], [0]]])
    def test_out_of_grid_rows_raise_on_both_paths(self, rows):
        for per_row in (0, 100):
            with pytest.raises(ValueError, match="invalid entry"):
                cells_with(np.array(rows), [5], per_row)
