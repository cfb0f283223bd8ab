"""The midpoint-grid cosine transforms: ``phi_block(..., midpoint=n)`` and ``phi_expand``.

On the midpoint grid the projection of a batch onto orders ``0..m-1`` is
one DCT-II of its dense weight vector, and the synopsis' reconstruction is
one DCT-III.  These tests pin both to the per-entry reference kernel and
to scipy's DCT, on both sides of the crossover and of the
conjugate-symmetry branch (orders above ``n / 2``), and check that the
paths that must stay per-cell do.
"""

import numpy as np
import pytest
from scipy.fft import dct

import repro.fastpath.backend as backend_module
from repro.core.basis import coefficients_via_scipy_dct
from repro.core.normalization import Domain
from repro.core.synopsis import CosineSynopsis
from repro.fastpath import SQRT2, phi_block, phi_block_reference, phi_expand, set_backend
from repro.fastpath.transform import dct_expand, dct_project, transform_wins

EPS = np.finfo(float).eps
SIZES = [1, 2, 3, 5, 1023, 1024, 16_384]


def orders_of(n: int) -> list[int]:
    """Orders 1, n // 2, n // 2 + 1 and n: both sides of the symmetry branch."""
    return sorted({o for o in (1, n // 2, n // 2 + 1, n) if 1 <= o <= n})


def midpoint_positions(cells: np.ndarray, n: int) -> np.ndarray:
    return (2.0 * cells + 1.0) / (2.0 * n)


def reference_projection(order: int, cells: np.ndarray, weights: np.ndarray, n: int):
    return phi_block_reference(order, midpoint_positions(cells, n)) @ weights


def assert_close(got, want, weights, order):
    """Within ``8 order eps`` of ``sqrt(2) sum |w|``, the scale either side errs on."""
    scale = SQRT2 * max(np.abs(weights).sum(), 1.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=8 * order * EPS * scale)


@pytest.fixture
def transform_calls(monkeypatch):
    """Record each DCT the numpy kernel runs."""
    calls = []
    real = backend_module.dct_project

    def counting(order, cells, weights, n):
        calls.append((order, cells.shape[0], n))
        return real(order, cells, weights, n)

    monkeypatch.setattr(backend_module, "dct_project", counting)
    return calls


def crossover(order: int, n: int) -> int:
    """The fewest cells for which the numpy kernel takes the transform."""
    cells = 1
    while not transform_wins(cells, order, n):
        cells += 1
    return cells


class TestProjectionParity:
    @pytest.mark.parametrize("n", SIZES)
    def test_signed_multiplicities_match_the_reference(self, n):
        rng = np.random.default_rng(n)
        cells = rng.integers(0, n, 3 * n + 5)  # repeats add up
        weights = rng.integers(-4, 6, cells.size).astype(float)  # deletes are negative
        for order in orders_of(n):
            want = reference_projection(order, cells, weights, n)
            # the transform itself (tiny grids never route to it), then the kernel
            assert_close(dct_project(order, cells, weights, n), want, weights, order)
            assert_close(phi_block(order, cells, weights=weights, midpoint=n), want, weights, order)

    @pytest.mark.parametrize("n", SIZES)
    def test_counts_match_scipy(self, n):
        rng = np.random.default_rng(n + 1)
        counts = rng.integers(0, 4, n).astype(float)
        counts[rng.integers(0, n)] += 1.0
        total = counts.sum()
        cells = np.flatnonzero(counts)
        want = coefficients_via_scipy_dct(counts)
        for order in orders_of(n):
            got = phi_block(order, cells, weights=counts[cells], midpoint=n) / total
            np.testing.assert_allclose(got, want[:order], rtol=0.0, atol=64 * EPS)

    @pytest.mark.parametrize("n", [1023, 1024])
    def test_signed_weights_match_scipy(self, n):
        rng = np.random.default_rng(7)
        dense = rng.normal(size=n)
        scaled = dct(dense, type=2) / 2.0
        scaled[1:] *= SQRT2
        for order in orders_of(n):
            got = phi_block(order, np.arange(n), weights=dense, midpoint=n)
            assert_close(got, scaled[:order], dense, 1)

    @pytest.mark.parametrize("n,order", [(1024, 256), (4096, 256), (16_384, 1024), (64, 64)])
    def test_both_sides_of_the_crossover(self, n, order, transform_calls):
        rng = np.random.default_rng(n)
        edge = crossover(order, n)
        for count in (edge - 1, edge):
            cells = rng.choice(n, size=count, replace=False)
            weights = rng.integers(1, 5, count).astype(float)
            got = phi_block(order, cells, weights=weights, midpoint=n)
            assert_close(got, reference_projection(order, cells, weights, n), weights, order)
        assert transform_calls == [(order, edge, n)]

    @pytest.mark.parametrize("n,order", [(64, 64), (1024, 256), (4096, 4096), (16_384, 1024)])
    def test_one_row_is_bit_identical_to_the_reference(self, n, order, transform_calls):
        for cell, weight in ((0, 1.0), (n // 3, 3.0), (n - 1, -2.0)):
            cells, weights = np.array([cell]), np.array([weight])
            got = phi_block(order, cells, weights=weights, midpoint=n)
            assert np.array_equal(got, reference_projection(order, cells, weights, n))
        assert transform_calls == []

    def test_reference_backend_never_transforms(self, transform_calls):
        set_backend("reference")
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 4096, 5000)
        weights = np.ones(cells.size)
        got = phi_block(256, cells, weights=weights, midpoint=4096)
        assert np.array_equal(got, reference_projection(256, cells, weights, 4096))
        coefficients = rng.normal(size=256)
        table = phi_block_reference(256, midpoint_positions(np.arange(4096), 4096))
        assert np.array_equal(phi_expand(coefficients, 4096), coefficients @ table)
        assert transform_calls == []


class TestExpansion:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_reference_table(self, n):
        rng = np.random.default_rng(n)
        grid = midpoint_positions(np.arange(n), n)
        for order in orders_of(n):
            coefficients = rng.normal(size=order)
            want = coefficients @ phi_block_reference(order, grid)
            assert_close(dct_expand(coefficients, n), want, coefficients, order)
            assert_close(phi_expand(coefficients, n), want, coefficients, order)

    @pytest.mark.parametrize("n", SIZES)
    def test_full_order_round_trip_is_exact(self, n):
        rng = np.random.default_rng(n)
        dense = rng.integers(-3, 8, n).astype(float)
        sums = phi_block(n, np.arange(n), weights=dense, midpoint=n)
        np.testing.assert_allclose(phi_expand(sums / n, n), dense, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [5, 1024, 4096])
    def test_synopsis_reconstruction_at_full_order(self, n):
        counts = np.random.default_rng(n).integers(0, 9, n).astype(float)
        synopsis = CosineSynopsis.from_counts(Domain.of_size(n), counts, order=n)
        np.testing.assert_allclose(synopsis.reconstruct_counts(), counts, rtol=0.0, atol=1e-9)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError, match="1..4 orders"):
            phi_expand(np.ones(5), 4)
        with pytest.raises(ValueError, match="1..4 orders"):
            phi_expand(np.ones((2, 2)), 4)


class TestSynopsisPaths:
    """A one-attribute midpoint synopsis on the numpy kernel tracks the reference."""

    def build(self, backend, domain, batches, order):
        set_backend(backend)
        synopsis = CosineSynopsis(domain, order=order)
        for rows, delete in batches:
            (synopsis.delete_batch if delete else synopsis.insert_batch)(rows)
        return synopsis

    def test_insert_delete_stream(self, transform_calls):
        domain = Domain.integer_range(-100, 923)  # n = 1024, offset values
        rng = np.random.default_rng(11)
        first = rng.integers(-100, 924, (3000, 1))
        batches = [(first, False), (rng.integers(-100, 924, (40, 1)), False),
                   (first[:500], True), (np.array([[5]]), False)]
        fast = self.build("numpy", domain, batches, order=600)
        reference = self.build("reference", domain, batches, order=600)
        assert transform_calls  # the wide batches took the transform
        assert fast.count == reference.count
        assert_close(fast._sums, reference._sums, np.ones(3000), 600)

    def test_categorical_domain(self):
        domain = Domain.categorical([f"c{i}" for i in range(300)])
        rng = np.random.default_rng(5)
        rows = np.array([[f"c{i}"] for i in rng.integers(0, 300, 2000)], dtype=object)
        fast = self.build("numpy", domain, [(rows, False), (rows[:700], True)], order=200)
        reference = self.build("reference", domain, [(rows, False), (rows[:700], True)], order=200)
        assert_close(fast._sums, reference._sums, np.ones(2000), 200)

    def test_one_row_insert_is_bit_identical(self):
        domain = Domain.of_size(64)
        fast = self.build("numpy", domain, [(np.array([[17]]), False)], order=64)
        reference = self.build("reference", domain, [(np.array([[17]]), False)], order=64)
        assert np.array_equal(fast._sums, reference._sums)

    def test_from_counts_matches_streaming(self):
        domain = Domain.of_size(16_384)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, domain.size, (20_000, 1))
        counts = np.bincount(rows[:, 0], minlength=domain.size).astype(float)
        built = CosineSynopsis.from_counts(domain, counts, budget=1024)
        streamed = CosineSynopsis(domain, budget=1024)
        streamed.insert_batch(rows)
        assert built.count == streamed.count == 20_000
        assert_close(built._sums, streamed._sums, np.ones(20_000), 1)


class TestInterface:
    def test_cells_must_be_integers_inside_the_grid(self):
        with pytest.raises(ValueError, match="integer array"):
            phi_block(4, np.array([0.5]), weights=np.ones(1), midpoint=8)
        with pytest.raises(ValueError, match=r"lie in \[0, 8\)"):
            phi_block(4, np.array([8]), weights=np.ones(1), midpoint=8)
        with pytest.raises(ValueError, match=r"lie in \[0, 8\)"):
            phi_block(4, np.array([-1]), weights=np.ones(1), midpoint=8)

    def test_weights_are_one_per_cell(self):
        with pytest.raises(ValueError, match="weights must have shape"):
            phi_block(4, np.array([1, 2]), weights=np.ones((2, 2)), midpoint=8)

    def test_midpoint_is_the_projection_form(self):
        with pytest.raises(ValueError, match="projection form"):
            phi_block(4, np.array([1, 2]), midpoint=8)
        with pytest.raises(ValueError, match="out="):
            phi_block(4, np.array([1]), np.empty((4, 1)), weights=np.ones(1), midpoint=8)

    def test_no_cells_project_to_zero(self):
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(phi_block(5, empty, weights=np.empty(0), midpoint=8), np.zeros(5))

    def test_orders_past_the_grid_stay_per_cell(self, transform_calls):
        cells = np.arange(8).repeat(20)
        weights = np.ones(cells.size)
        got = phi_block(12, cells, weights=weights, midpoint=8)
        assert_close(got, reference_projection(12, cells, weights, 8), weights, 12)
        assert transform_calls == []
