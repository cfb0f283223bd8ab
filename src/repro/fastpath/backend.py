"""The kernels behind :func:`phi_block` and :func:`phi_expand`, and their one switch.

Every coefficient maintenance path runs the numpy kernels: the recurrence
from :mod:`repro.fastpath.recurrence`, or, for cells of a midpoint grid
past the crossover, the DCT from :mod:`repro.fastpath.transform`.
:func:`set_backend` swaps in one other kernel, ``"reference"``: the 1.5.0
per-entry evaluation, bit-identical to ``repro.core.basis.basis_matrix``,
on every path.  It stays selectable so benchmarks and parity tests can run
the whole engine on it and A/B the fast kernels against the exact seed
behavior in the same process (``benchmarks/bench_fastpath.py`` measures
its speedup floors this way).

This module deliberately imports nothing from ``repro.core`` or
``repro.obs`` — it sits below both, so the synopsis and telemetry layers
can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from .recurrence import _prepare_weights, phi_block_numpy, phi_block_reference, phi_project_numpy
from .transform import dct_expand, dct_project, transform_wins

__all__ = ["backend_name", "phi_block", "phi_expand", "set_backend"]

_backend = "numpy"


def backend_name() -> str:
    """Name of the active kernel (``numpy`` / ``reference``)."""
    return _backend


def set_backend(name: str) -> str:
    """Activate ``"numpy"`` or ``"reference"``; returns the previous name."""
    global _backend
    if name not in ("numpy", "reference"):
        raise ValueError(f"unknown backend {name!r}; choose 'numpy' or 'reference'")
    previous, _backend = _backend, name
    return previous


def phi_block(
    order: int,
    positions: NDArray[Any],
    out: NDArray[Any] | None = None,
    *,
    weights: NDArray[Any] | None = None,
    midpoint: int | None = None,
) -> NDArray[Any]:
    """Basis table ``P[k, b] = phi_k(positions[b])`` on the active kernel.

    The drop-in fast replacement for
    ``basis_matrix(np.arange(order), positions)`` — every coefficient
    maintenance path routes through here.

    With ``weights`` of shape ``(B,)`` or ``(B, R)`` it returns the
    projection ``P @ weights`` instead, of shape ``(order,)`` or
    ``(order, R)``.  The numpy kernel computes it block by block without
    the table (:func:`repro.fastpath.recurrence.phi_project_numpy`); the
    ``reference`` kernel contracts its own table.  ``out`` is the table's
    buffer and does not apply to the projection.

    ``midpoint=n`` (projection form, weights of shape ``(B,)``) says that
    ``positions`` are integer cells ``j`` of the ``n``-point midpoint grid,
    ``x_j = (2j + 1) / (2n)``.  The numpy kernel then computes the
    projection as one DCT-II of the dense weight vector when
    :func:`repro.fastpath.transform.transform_wins` says that beats
    evaluating the basis per cell.
    """
    if weights is None:
        if midpoint is not None:
            raise ValueError("midpoint= takes the projection form; pass weights=")
        if _backend == "numpy":
            return phi_block_numpy(order, positions, out)
        return phi_block_reference(order, positions, out)
    if out is not None:
        raise ValueError("out= is the table's buffer; the projection form takes none")
    if midpoint is not None:
        positions, weights = _prepare_cells(order, positions, weights, midpoint)
        if _backend == "numpy" and transform_wins(positions.shape[0], order, midpoint):
            return dct_project(order, positions, weights, midpoint)
        positions = (2.0 * positions + 1.0) / (2.0 * midpoint)
    if _backend == "numpy":
        return phi_project_numpy(order, positions, weights)
    weights = _prepare_weights(positions, weights)
    return phi_block_reference(order, positions) @ weights


def phi_expand(coefficients: NDArray[Any], n: int) -> NDArray[Any]:
    """``sum_k coefficients[k] phi_k(x_j)`` at every point of the ``n``-point midpoint grid.

    The inverse of the projection form on the full grid: with all ``n``
    coefficients of a weight vector, ``phi_expand(phi_block(n, cells,
    weights=w, midpoint=n) / n, n)`` gives back the dense ``w``.  The numpy
    kernel runs one DCT-III; the ``reference`` kernel contracts its table.
    """
    coefficients = np.ascontiguousarray(coefficients, dtype=np.float64)
    if coefficients.ndim != 1 or not 1 <= coefficients.shape[0] <= n:
        raise ValueError(f"coefficients must be 1-d with 1..{n} orders, got {coefficients.shape}")
    if _backend == "numpy":
        return dct_expand(coefficients, n)
    grid = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    return coefficients @ phi_block_reference(coefficients.shape[0], grid)


def _prepare_cells(
    order: int, cells: NDArray[Any], weights: NDArray[Any], n: int
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Validate midpoint-grid cells and their ``(B,)`` weights."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    cells = np.asarray(cells)
    if cells.ndim != 1 or (cells.size and cells.dtype.kind not in "iu"):
        raise ValueError(
            f"midpoint cells must be a 1-d integer array, got {cells.dtype} {cells.shape}"
        )
    if cells.size and (cells.min() < 0 or cells.max() >= n):
        raise ValueError(f"midpoint cells must lie in [0, {n}), got {cells.min()}..{cells.max()}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != cells.shape:
        raise ValueError(
            f"weights must have shape {cells.shape} with midpoint=, got {weights.shape}"
        )
    return cells.astype(np.int64, copy=False), weights
