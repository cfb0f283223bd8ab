"""Triangular truncation of multidimensional coefficient index sets.

Section 3.2 adopts the "triangular sampling" technique of Lee et al. [21]:
of the ``m^d`` tensor-product coefficients of a d-dimensional transform,
retain only those whose index tuple satisfies

    k_1 + k_2 + ... + k_d <= m - 1.

Exactly ``C(m + d - 1, d)`` coefficients survive — about ``1/d!`` of the
full grid — and, because the retained set is fully determined by ``(m, d)``,
no index needs to be stored alongside the values.
"""

from __future__ import annotations

from typing import Any

from math import comb

import numpy as np
from numpy.typing import NDArray


def triangular_count(order: int, ndim: int) -> int:
    """Number of index tuples with ``k_1 + ... + k_d <= order - 1``.

    Equals ``C(order + ndim - 1, ndim)`` (paper section 3.2).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1, got {ndim}")
    return comb(order + ndim - 1, ndim)


def full_count(order: int, ndim: int) -> int:
    """Number of index tuples on the full ``order^ndim`` grid."""
    if order < 1 or ndim < 1:
        raise ValueError("order and ndim must be >= 1")
    return order**ndim


def triangular_indices(order: int, ndim: int) -> NDArray[Any]:
    """Enumerate the triangular index set in lexicographic order.

    Returns an ``(count, ndim)`` int64 array.  The enumeration order is
    deterministic for a given ``(order, ndim)``, which is what lets the
    synopsis store bare coefficient values without their indexes.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1, got {ndim}")
    if ndim == 1:
        return np.arange(order, dtype=np.int64)[:, None]
    rows: list[NDArray[Any]] = []
    for first in range(order):
        tail = triangular_indices(order - first, ndim - 1)
        block = np.empty((tail.shape[0], ndim), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = tail
        rows.append(block)
    return np.concatenate(rows, axis=0)


def full_indices(order: int, ndim: int) -> NDArray[Any]:
    """Enumerate the full ``order^ndim`` grid in lexicographic order."""
    if order < 1 or ndim < 1:
        raise ValueError("order and ndim must be >= 1")
    grids = np.meshgrid(*([np.arange(order, dtype=np.int64)] * ndim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def order_for_budget(budget: int, ndim: int, truncation: str = "triangular") -> int:
    """Largest order ``m`` whose retained-coefficient count fits ``budget``.

    This is how a paper-style space budget ("number of coefficients") is
    converted into a transform order.  Raises if even ``m = 1`` does not fit.
    The count grows with the order, so the search doubles an upper bound
    and then bisects: ``O(log m)`` counts rather than one per order.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    counter = triangular_count if truncation == "triangular" else full_count
    if truncation not in ("triangular", "full"):
        raise ValueError(f"unknown truncation: {truncation!r}")
    if counter(1, ndim) > budget:
        raise ValueError(f"budget {budget} cannot hold even a single coefficient")
    fits, over = 1, 2  # invariant: counter(fits) <= budget < counter(over)
    while counter(over, ndim) <= budget:
        fits, over = over, 2 * over
    while over - fits > 1:
        middle = (fits + over) // 2
        if counter(middle, ndim) <= budget:
            fits = middle
        else:
            over = middle
    return fits


def scatter_to_dense(
    indices: NDArray[Any], values: NDArray[Any], order: int
) -> NDArray[Any]:
    """Scatter retained coefficients into a dense ``(order,)*ndim`` tensor.

    Entries outside the retained set are zero — exactly the truncation the
    estimator applies.  Used by the multi-join tensor contraction.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if indices.ndim != 2 or indices.shape[0] != values.shape[0]:
        raise ValueError("indices must be (count, ndim) matching values length")
    ndim = indices.shape[1]
    if indices.size and indices.max() >= order:
        raise ValueError("an index exceeds the requested dense order")
    dense = np.zeros((order,) * ndim, dtype=float)
    dense[tuple(indices[:, j] for j in range(ndim))] = values
    return dense
