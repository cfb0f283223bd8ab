"""The cosine basis on the midpoint grid as a discrete cosine transform.

On the ``n``-point midpoint grid ``x_j = (2j + 1) / (2n)`` the basis rows
are the DCT-II kernel.  A weighted sum over grid cells, for every order
``k < m`` at once,

    sum_j w_j phi_k(x_j) = s_k C_k,   C_k = sum_j w_j cos(pi k (2j + 1) / (2n)),

(``s_0 = 1``, ``s_k = sqrt(2)``) is therefore one DCT-II of the dense
``n``-vector ``w``, and evaluating an expansion ``sum_k c_k phi_k(x_j)`` at
every grid point is one DCT-III.  Both cost ``O(n log n)`` whatever the
number of occupied cells, against ``O(m)`` basis evaluations per cell.

Makhoul's reordering computes each with one real FFT of length ``n``.  Put
the even cells in ascending order, then the odd cells in descending order,

    v = (w_0, w_2, w_4, ..., w_5, w_3, w_1);

then ``C_k = Re(exp(-i pi k / (2n)) V_k)`` with ``V`` the FFT of ``v``.  A
real input's spectrum is conjugate-symmetric, ``V_{n-k} = conj(V_k)``, so
the ``n // 2 + 1`` bins of ``rfft`` serve every order: orders above ``n/2``
read ``conj(V_{n-k})``.  The inverse runs the same steps backwards through
one ``irfft``.

:func:`transform_wins` is the crossover between this transform and
evaluating the basis per cell (:func:`repro.fastpath.recurrence.phi_project_numpy`):
a cost model on the cell count, the order and ``n``, with constants
measured on numpy's FFT (``docs/PERFORMANCE.md``, "Cosine transforms").

``numpy.fft`` is imported here, with the kernel, rather than on first use:
shard workers fork from a coordinator that has imported the kernel, so
they inherit the module instead of each loading it on its first batch.
"""

from __future__ import annotations

from typing import Any

import math

import numpy as np
from numpy.fft import irfft, rfft
from numpy.typing import NDArray

from .recurrence import RECURRENCE_MIN_COLS, SQRT2

__all__ = ["dct_expand", "dct_project", "transform_wins"]

#: Cost model of the crossover, in nanoseconds, fitted to the table in
#: ``docs/PERFORMANCE.md`` (2-vCPU x86 box, numpy 2.4's pocketfft).
#: Per-cell evaluation costs ``DIRECT_NS`` per basis entry below
#: ``RECURRENCE_MIN_COLS`` cells, and ``RECURRENCE_ROW_NS`` per order plus
#: ``RECURRENCE_NS`` per entry from there on (the recurrence).  The
#: transform costs ``TRANSFORM_FIXED_NS`` more than per-cell evaluation's
#: own fixed cost, plus ``FFT_NS`` per ``n log2 n`` and ``TWIDDLE_NS`` per
#: order.
DIRECT_NS = 25.0
RECURRENCE_ROW_NS = 1_200.0
RECURRENCE_NS = 1.3
TRANSFORM_FIXED_NS = 22_000.0
FFT_NS = 0.8
TWIDDLE_NS = 40.0

def transform_wins(cells: int, order: int, n: int) -> bool:
    """Whether one DCT of the dense ``n``-vector beats per-cell evaluation.

    ``cells`` is the number of weighted grid cells (the distinct values of
    a batch).  A one-cell update always stays per-cell: the transform's
    fixed cost alone exceeds it at every measured shape.  Orders at or
    above ``n`` alias on the grid; the transform computes only those below.
    """
    if order > n:
        return False
    if cells < RECURRENCE_MIN_COLS:
        per_cell = DIRECT_NS * cells * order
    else:
        per_cell = order * (RECURRENCE_ROW_NS + RECURRENCE_NS * cells)
    transform = TRANSFORM_FIXED_NS + FFT_NS * n * math.log2(n) + TWIDDLE_NS * order
    return per_cell > transform


def _twiddles(count: int, n: int) -> tuple[NDArray[Any], NDArray[Any]]:
    """``cos`` and ``sin`` of ``pi k / (2n)`` for ``k < count``."""
    theta = np.arange(count) * (np.pi / (2 * n))
    return np.cos(theta), np.sin(theta)


def dct_project(
    order: int, cells: NDArray[Any], weights: NDArray[Any], n: int
) -> NDArray[Any]:
    """``sum_b weights[b] phi_k(x_{cells[b]})`` for every ``k < order``.

    ``cells`` are integer indices into the ``n``-point midpoint grid
    (repeats add up), ``weights`` a float64 vector of the same length and
    ``order <= n``.  One DCT-II of the dense weight vector.
    """
    # Makhoul's reordering, applied to the cells before they are summed.
    slots = np.where(cells & 1, n - 1 - (cells >> 1), cells >> 1)
    spectrum = rfft(np.bincount(slots, weights, minlength=n))
    half = spectrum.shape[0]
    if order > half:  # conjugate symmetry serves the orders above n / 2
        upper = spectrum[n - np.arange(half, order)].conj()
        spectrum = np.concatenate((spectrum, upper))
    cos, sin = _twiddles(order, n)
    out = spectrum.real[:order] * cos + spectrum.imag[:order] * sin
    out[1:] *= SQRT2
    return out


def dct_expand(coefficients: NDArray[Any], n: int) -> NDArray[Any]:
    """``sum_k coefficients[k] phi_k(x_j)`` at every point ``j < n`` of the grid.

    ``coefficients`` has length ``order <= n``; the orders it omits are
    zero.  One DCT-III, through Makhoul's inverse: bin ``k`` of the
    reordered vector's spectrum is ``exp(i pi k / (2n)) (e_k - i e_{n-k})``
    with ``e_0 = c_0``, ``e_k = c_k / sqrt(2)`` and ``e_n = 0``.
    """
    order = coefficients.shape[0]
    half = n // 2 + 1
    padded = np.zeros(n + 1)
    padded[:order] = coefficients
    padded[1:order] /= SQRT2
    # Bin k holds e_k and its partner e_{n-k}; from bin ``order`` up both
    # are zero, so only the first min(order, half) bins need twiddles.
    width = min(order, half)
    k = np.arange(width)
    cos, sin = _twiddles(width, n)
    real, imag = padded[:width], -padded[n - k]
    spectrum = np.zeros(half, dtype=complex)
    spectrum.real[:width] = real * cos - imag * sin
    spectrum.imag[:width] = real * sin + imag * cos
    v = irfft(spectrum, n, norm="forward")
    out = np.empty(n)
    split = (n + 1) // 2
    out[::2] = v[:split]
    out[1::2] = v[split:][::-1]
    return out
