"""Tests for the cosine basis, grids and coefficient computation."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import (
    SQRT2,
    basis_matrix,
    coefficients_from_counts,
    coefficients_via_scipy_dct,
    endpoint_grid,
    make_grid,
    midpoint_grid,
    orthogonality_gram,
    phi,
    reconstruct_frequencies,
)


class TestGrids:
    def test_midpoint_grid_values(self):
        np.testing.assert_allclose(midpoint_grid(2), [0.25, 0.75])
        np.testing.assert_allclose(midpoint_grid(5), [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_midpoint_grid_inside_unit_interval(self):
        g = midpoint_grid(100)
        assert g.min() > 0 and g.max() < 1

    def test_endpoint_grid_matches_section_31_example(self):
        # The paper's example: domain {0..4} normalizes to {0, 1/4, .., 1}.
        np.testing.assert_allclose(endpoint_grid(5), [0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoint_grid_degenerate_domain(self):
        np.testing.assert_allclose(endpoint_grid(1), [0.5])

    def test_make_grid_dispatch(self):
        np.testing.assert_array_equal(make_grid(4, "midpoint"), midpoint_grid(4))
        np.testing.assert_array_equal(make_grid(4, "endpoint"), endpoint_grid(4))

    def test_make_grid_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown grid"):
            make_grid(4, "chebyshev")  # type: ignore[arg-type]

    @pytest.mark.parametrize("fn", [midpoint_grid, endpoint_grid])
    def test_grids_reject_empty_domain(self, fn):
        with pytest.raises(ValueError):
            fn(0)


class TestPhi:
    def test_phi_zero_is_constant_one(self):
        x = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(phi(0, x), np.ones(7))

    def test_phi_k_formula(self):
        x = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(phi(2, x), SQRT2 * np.cos(2 * np.pi * x))

    def test_phi_broadcasts_k_and_x(self):
        out = phi(np.arange(4)[:, None], np.linspace(0, 1, 9)[None, :])
        assert out.shape == (4, 9)
        np.testing.assert_array_equal(out[0], np.ones(9))

    def test_phi_bounded_by_sqrt2(self):
        out = phi(np.arange(50)[:, None], np.linspace(0, 1, 101)[None, :])
        assert np.all(np.abs(out) <= SQRT2 + 1e-12)

    def test_basis_matrix_shape(self):
        mat = basis_matrix(np.arange(5), midpoint_grid(11))
        assert mat.shape == (5, 11)


class TestOrthogonality:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 257])
    def test_midpoint_grid_is_exactly_orthonormal(self, n):
        gram = orthogonality_gram(n, "midpoint")
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)

    def test_endpoint_grid_is_not_orthonormal(self):
        gram = orthogonality_gram(16, "endpoint")
        assert np.abs(gram - np.eye(16)).max() > 0.01


class TestCoefficients:
    def test_a0_is_always_one(self, rng):
        counts = rng.integers(1, 100, size=50).astype(float)
        coeffs = coefficients_from_counts(counts)
        assert coeffs[0] == pytest.approx(1.0)

    def test_coefficients_bounded_by_sqrt2(self, rng):
        counts = rng.integers(0, 100, size=128).astype(float)
        coeffs = coefficients_from_counts(counts)
        assert np.all(np.abs(coeffs) <= SQRT2 + 1e-12)

    def test_matches_scipy_dct(self, rng):
        counts = rng.integers(0, 50, size=200).astype(float)
        np.testing.assert_allclose(
            coefficients_from_counts(counts),
            coefficients_via_scipy_dct(counts),
            atol=1e-12,
        )

    def test_paper_example_coefficients(self):
        # Section 3.2 example: 6 values {0.33, 0.32, 0.12, 0.66, 0.90, 0.80}
        # give a1 = -0.063, a2 = 0.0951 (coefficients over raw positions).
        stream = np.array([0.33, 0.32, 0.12, 0.66, 0.90, 0.80])
        a1 = np.mean(SQRT2 * np.cos(1 * np.pi * stream))
        a2 = np.mean(SQRT2 * np.cos(2 * np.pi * stream))
        assert a1 == pytest.approx(-0.063, abs=5e-4)
        assert a2 == pytest.approx(0.0951, abs=5e-4)

    def test_truncated_orders(self, rng):
        counts = rng.integers(0, 50, size=100).astype(float)
        full = coefficients_from_counts(counts)
        part = coefficients_from_counts(counts, orders=np.arange(7))
        np.testing.assert_allclose(part, full[:7])

    def test_uniform_counts_have_zero_higher_coefficients(self):
        # Section 4.3.1: uniform data needs only a0 (all a_k = 0, k >= 1).
        coeffs = coefficients_from_counts(np.full(64, 5.0))
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)
        assert coeffs[0] == pytest.approx(1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            coefficients_from_counts(np.zeros(10))
        with pytest.raises(ValueError, match="empty"):
            coefficients_via_scipy_dct(np.zeros(10))

    def test_multidim_counts_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            coefficients_from_counts(np.ones((3, 3)))


class TestReconstruction:
    def test_full_reconstruction_is_exact_on_midpoint_grid(self, rng):
        counts = rng.integers(0, 30, size=40).astype(float)
        n = len(counts)
        coeffs = coefficients_from_counts(counts)
        freqs = reconstruct_frequencies(coeffs, np.arange(n), n)
        np.testing.assert_allclose(freqs, counts / counts.sum(), atol=1e-10)

    def test_truncated_reconstruction_sums_to_one(self, rng):
        counts = rng.integers(0, 30, size=64).astype(float) + 1
        coeffs = coefficients_from_counts(counts, orders=np.arange(9))
        freqs = reconstruct_frequencies(coeffs, np.arange(9), 64)
        assert freqs.sum() == pytest.approx(1.0, abs=1e-9)


class TestParsevalProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_parseval_identity_holds_on_midpoint_grid(self, n, seed):
        # Eq. 4.2: sum_v f1(v) f2(v) == (1/n) sum_k a_k b_k, exactly, for
        # any pair of frequency functions on the same domain.
        r = np.random.default_rng(seed)
        c1 = r.integers(0, 20, size=n).astype(float) + 1
        c2 = r.integers(0, 20, size=n).astype(float) + 1
        a = coefficients_from_counts(c1)
        b = coefficients_from_counts(c2)
        lhs = float(np.dot(c1 / c1.sum(), c2 / c2.sum()))
        rhs = float(np.dot(a, b)) / n
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_import_repro_leaves_scipy_unloaded():
    # scipy is imported by coefficients_via_scipy_dct on first use only.
    code = "import sys, repro, repro.streams, repro.sharding; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"
