"""Point and range COUNT estimation from a cosine synopsis.

The paper's conclusion notes the method "can also be applied to non-equal-
joins, range, and point queries"; this module implements that extension for
one-dimensional synopses.  The estimated count of values in the index range
``[lo, hi]`` is

    Est = (N / n) * sum_k a_k * sum_{j=lo}^{hi} phi_k(x_j)

where the inner basis sums have a closed form on the midpoint grid via the
cosine sum identity

    sum_{j=lo}^{hi} cos(k pi (2j+1) / (2n))
        = [ sin(k pi (hi+1) / n) - sin(k pi lo / n) ] / (2 sin(k pi / (2n))).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..fastpath import phi_block
from .basis import SQRT2
from .synopsis import CosineSynopsis


def basis_range_sums(order: int, n: int, lo: int, hi: int) -> NDArray[Any]:
    """Closed-form ``sum_{j=lo}^{hi} phi_k(x_j)`` on the midpoint grid.

    Returns the length-``order`` vector for ``k = 0..order-1``.
    """
    if not 0 <= lo <= hi < n:
        raise ValueError(f"index range [{lo}, {hi}] not inside [0, {n - 1}]")
    k = np.arange(order, dtype=float)
    sums = np.empty(order, dtype=float)
    sums[0] = hi - lo + 1
    if order > 1:
        kk = k[1:]
        numer = np.sin(kk * np.pi * (hi + 1) / n) - np.sin(kk * np.pi * lo / n)
        denom = 2.0 * np.sin(kk * np.pi / (2.0 * n))
        sums[1:] = SQRT2 * numer / denom
    return sums


def estimate_range_count(synopsis: CosineSynopsis, lo_index: int, hi_index: int) -> float:
    """Estimate how many stream elements fall in domain indices [lo, hi].

    Indices refer to the synopsis' domain (use ``domain.index_of`` to map raw
    values).  Works on either grid; the midpoint grid uses the closed form,
    the endpoint grid sums the basis directly.
    """
    if synopsis.ndim != 1:
        raise ValueError("range estimation expects a single-attribute synopsis")
    domain = synopsis.domains[0]
    n = domain.size
    if not 0 <= lo_index <= hi_index < n:
        raise ValueError(f"index range [{lo_index}, {hi_index}] not inside [0, {n - 1}]")
    if synopsis.grid == "midpoint":
        sums = basis_range_sums(synopsis.order, n, lo_index, hi_index)
    else:
        positions = domain.grid(synopsis.grid)[lo_index : hi_index + 1]
        sums = phi_block(synopsis.order, positions, weights=np.ones(positions.shape[0]))
    return synopsis.count / n * float(np.dot(synopsis.coefficients, sums))


def estimate_point_count(synopsis: CosineSynopsis, index: int) -> float:
    """Estimate the frequency of a single domain value (a point query)."""
    return estimate_range_count(synopsis, index, index)


def estimate_range_selectivity(synopsis: CosineSynopsis, lo_index: int, hi_index: int) -> float:
    """Estimated fraction of the stream falling in the index range."""
    if synopsis.count == 0:
        raise ValueError("synopsis is empty")
    return estimate_range_count(synopsis, lo_index, hi_index) / synopsis.count


def estimate_cdf(synopsis: CosineSynopsis) -> NDArray[Any]:
    """Estimated cumulative distribution over the domain indices.

    ``cdf[j]`` estimates the fraction of the stream with value index
    ``<= j``.  Computed from the reconstruction and clipped monotone, so
    downstream quantile lookups are well-behaved even under truncation
    noise; exact at full coefficient budget.
    """
    if synopsis.ndim != 1:
        raise ValueError("CDF estimation expects a single-attribute synopsis")
    if synopsis.count == 0:
        raise ValueError("synopsis is empty")
    frequencies = synopsis.reconstruct_counts() / synopsis.count
    cdf = np.cumsum(frequencies)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    if cdf[-1] > 0:
        cdf = cdf / cdf[-1]
    return cdf


def estimate_quantile(synopsis: CosineSynopsis, q: float) -> int:
    """Estimated q-quantile of the stream, as a domain index.

    Returns the smallest index whose estimated CDF reaches ``q`` — the
    standard left-continuous inverse.  A classic synopsis query (equi-depth
    histogram construction, median tracking) answered from the same
    coefficients as everything else.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    cdf = estimate_cdf(synopsis)
    return int(np.searchsorted(cdf, q, side="left").clip(0, len(cdf) - 1))


def estimate_box_count(
    synopsis: CosineSynopsis, ranges: "list[tuple[int, int] | None]"
) -> float:
    """Estimate how many tuples fall inside a d-dimensional index box.

    ``ranges`` gives one inclusive ``(lo, hi)`` index range per attribute
    (``None`` = the whole axis).  The box count is a separable functional
    of the joint frequency, so it contracts the coefficient tensor with the
    per-dimension closed-form basis range sums:

        Est = (N / prod_j n_j) * sum_k a_k * prod_j S_{k_j}(lo_j, hi_j).

    This is the multidimensional form of :func:`estimate_range_count` (the
    selectivity estimation of Lee et al. [21], which the paper builds on).
    """
    if len(ranges) != synopsis.ndim:
        raise ValueError(
            f"need one range per attribute ({synopsis.ndim}), got {len(ranges)}"
        )
    factors = []
    scale = float(synopsis.count)
    for domain, bounds in zip(synopsis.domains, ranges):
        n = domain.size
        lo, hi = (0, n - 1) if bounds is None else bounds
        if not 0 <= lo <= hi < n:
            raise ValueError(f"index range [{lo}, {hi}] not inside [0, {n - 1}]")
        if synopsis.grid == "midpoint":
            sums = basis_range_sums(synopsis.order, n, lo, hi)
        else:
            positions = domain.grid(synopsis.grid)[lo : hi + 1]
            sums = phi_block(synopsis.order, positions, weights=np.ones(positions.shape[0]))
        factors.append(sums)
        scale /= n
    per_coefficient = np.ones(synopsis.num_coefficients)
    for axis, sums in enumerate(factors):
        per_coefficient = per_coefficient * sums[synopsis.indices[:, axis]]
    return scale * float(np.dot(synopsis.coefficients, per_coefficient))
