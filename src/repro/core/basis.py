"""Cosine basis functions and discrete grids.

This module implements the orthonormal cosine basis used throughout the
paper (section 3.2):

    phi_0(x) = 1
    phi_k(x) = sqrt(2) * cos(k * pi * x),   k >= 1

together with the two discretizations of a size-``n`` attribute domain onto
the unit interval:

``midpoint`` grid (default)
    ``x_j = (2j + 1) / (2n)`` for ``j = 0..n-1``.  On this grid the basis is
    *exactly* orthonormal under the uniform discrete measure, which is what
    makes Parseval's identity (paper Eq. 4.2) — and therefore exact join-size
    recovery from the full coefficient set (Eq. 4.3) — hold.  The paper's own
    best-case analysis (Eq. 4.10) evaluates the basis on this grid.

``endpoint`` grid
    ``x_j = j / (n - 1)`` — the literal section 3.1 normalization
    ``(x - min) / (max - min)``.  Kept for fidelity; Parseval is only
    approximate here (see ``tests/core/test_basis.py``).
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np
from numpy.typing import NDArray

GridKind = Literal["midpoint", "endpoint"]

#: Normalization factor of the non-constant basis functions.
SQRT2 = float(np.sqrt(2.0))


def midpoint_grid(n: int) -> NDArray[Any]:
    """Return the DCT-II midpoint grid ``(2j+1)/(2n)``, ``j = 0..n-1``."""
    if n < 1:
        raise ValueError(f"domain size must be >= 1, got {n}")
    return (2.0 * np.arange(n) + 1.0) / (2.0 * n)


def endpoint_grid(n: int) -> NDArray[Any]:
    """Return the endpoint grid ``j/(n-1)`` (section 3.1 normalization).

    For ``n == 1`` the single point maps to 0.5 so that a degenerate domain
    still lies inside the unit interval.
    """
    if n < 1:
        raise ValueError(f"domain size must be >= 1, got {n}")
    if n == 1:
        return np.array([0.5])
    return np.arange(n) / (n - 1.0)


def make_grid(n: int, kind: GridKind = "midpoint") -> NDArray[Any]:
    """Return the grid of ``n`` normalized positions for the given kind."""
    if kind == "midpoint":
        return midpoint_grid(n)
    if kind == "endpoint":
        return endpoint_grid(n)
    raise ValueError(f"unknown grid kind: {kind!r}")


def phi(k: NDArray[Any] | int, x: NDArray[Any] | float) -> NDArray[Any]:
    """Evaluate ``phi_k(x)`` with numpy broadcasting over ``k`` and ``x``.

    ``phi_0(x) = 1`` and ``phi_k(x) = sqrt(2) cos(k pi x)`` for ``k >= 1``.
    The result has the broadcast shape of ``k`` and ``x``.
    """
    k_arr = np.asarray(k)
    x_arr = np.asarray(x, dtype=float)
    values = SQRT2 * np.cos(k_arr * np.pi * x_arr)
    return np.where(k_arr == 0, 1.0, values)


def basis_matrix(orders: NDArray[Any], positions: NDArray[Any]) -> NDArray[Any]:
    """Return the matrix ``P[i, j] = phi_{orders[i]}(positions[j])``.

    ``orders`` is a 1-d integer array of basis orders, ``positions`` a 1-d
    array of normalized positions; the result has shape
    ``(len(orders), len(positions))``.
    """
    orders = np.asarray(orders, dtype=np.int64)
    positions = np.asarray(positions, dtype=float)
    return phi(orders[:, None], positions[None, :])


def coefficients_from_counts(
    counts: NDArray[Any],
    orders: NDArray[Any] | None = None,
    grid: GridKind = "midpoint",
) -> NDArray[Any]:
    """Compute cosine coefficients of a 1-d frequency vector (paper Eq. 3.2).

    ``counts[j]`` is the number of stream elements holding the j-th domain
    value.  The coefficient of order ``k`` is

        a_k = (1/N) * sum_j counts[j] * phi_k(x_j),   N = sum_j counts[j].

    ``orders`` defaults to all ``0..n-1``; a truncated order list computes
    only the requested coefficients.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-d frequency vector")
    n = counts.shape[0]
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute coefficients of an empty stream")
    if orders is None:
        orders = np.arange(n)
    positions = make_grid(n, grid)
    return basis_matrix(np.asarray(orders), positions) @ counts / total


def coefficients_via_scipy_dct(counts: NDArray[Any]) -> NDArray[Any]:
    """Compute the full midpoint-grid coefficient vector via ``scipy.fft.dct``.

    scipy's type-II DCT returns ``y_k = 2 * sum_j counts[j] cos(pi k (2j+1) / (2n))``,
    so ``a_k = sqrt(2) * y_k / (2 N)`` for ``k >= 1`` and ``a_0 = 1``.  This is
    an O(n log n) batch builder and a cross-check of
    :func:`coefficients_from_counts`.  scipy is imported here, on first use,
    so ``import repro`` does not pay for it.
    """
    from scipy.fft import dct

    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-d frequency vector")
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute coefficients of an empty stream")
    raw = dct(counts, type=2, norm=None)
    coeffs = SQRT2 * raw / (2.0 * total)
    coeffs[0] = 1.0
    return coeffs


def reconstruct_frequencies(
    coefficients: NDArray[Any],
    orders: NDArray[Any],
    n: int,
    grid: GridKind = "midpoint",
) -> NDArray[Any]:
    """Reconstruct the (relative) frequency function from coefficients.

    Inverts the expansion on the discrete grid:
    ``f(x_j) = (1/n) * sum_k a_k phi_k(x_j)`` (exact on the midpoint grid when
    all ``n`` coefficients are supplied).  Returns an array of length ``n``
    summing to ~1 for a full, midpoint-grid coefficient set.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    positions = make_grid(n, grid)
    return coefficients @ basis_matrix(np.asarray(orders), positions) / n


def orthogonality_gram(n: int, grid: GridKind = "midpoint") -> NDArray[Any]:
    """Return the Gram matrix ``G[k,l] = (1/n) sum_j phi_k(x_j) phi_l(x_j)``.

    On the midpoint grid this is the identity; on the endpoint grid it is
    only approximately so.  Used by tests and the grid-choice ablation.
    """
    positions = make_grid(n, grid)
    mat = basis_matrix(np.arange(n), positions)
    return (mat @ mat.T) / n
