"""Numpy kernels for the cosine-basis hot path.

The reference implementation (:func:`repro.core.basis.basis_matrix`)
evaluates ``phi_k(x) = sqrt(2) cos(k pi x)`` with one transcendental call
per ``(k, x)`` pair — ``m * B`` cosines for an order-``m`` table over a
``B``-row batch.  The fast path exploits that the rows satisfy the
Chebyshev-style three-term recurrence

    cos((k+1) pi x) = 2 cos(pi x) * cos(k pi x) - cos((k-1) pi x)

so the whole ``(m, B)`` table needs exactly ``B`` cosine evaluations (the
``k = 1`` row); every further row is one fused multiply-subtract over the
batch, which is memory-bandwidth-bound rather than libm-bound.

Normalization is folded into the seeds: the recurrence is linear and
homogeneous, so running it on ``r_k = sqrt(2) cos(k pi x)`` directly
(seeds ``r_1 = sqrt(2) t``, ``r_2 = 2 t r_1 - sqrt(2)``) yields the
normalized rows with no final scaling pass.  Row 0 is the constant 1.

Numerical drift of the recurrence against direct evaluation is bounded by
the parity tests (``tests/fastpath/``) at <= 1e-9 for every order the
synopses can reach (orders are clamped to the domain size, and the drift
stays below 1e-8 even at order 20000).

Strategy selection: the recurrence wins only when each row update touches
enough columns to amortize the python-level loop — measured breakeven is
around 64 batch columns on one core.  Below that (notably the per-tuple
``B = 1`` path) a direct vectorized ``np.cos`` block is used instead, so
:func:`phi_block_numpy` is never slower than the reference.

Projection form: coefficient maintenance never needs the table itself,
only its product with the batch weights, ``sum_b w_b phi_k(x_b)``.
:func:`phi_project_numpy` runs the same recurrence (or direct block) in
blocks of at least :data:`PROJECT_ROWS` orders by at most
:data:`PROJECT_COLS` columns and contracts each block with its weights
before computing the next.  No call then holds more than
``PROJECT_ROWS * PROJECT_COLS`` basis values (1 MB), whatever the order or
batch width, and each block is still in cache when it is contracted.  The
basis values are bit-identical to the table's; only the summation order
of the contraction differs.
"""

from __future__ import annotations

from typing import Any, Iterator

import math

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "PROJECT_COLS",
    "PROJECT_ROWS",
    "RECURRENCE_MIN_COLS",
    "SQRT2",
    "phi_block_numpy",
    "phi_block_reference",
    "phi_project_numpy",
]

#: Normalization factor of the non-constant basis functions (identical in
#: value to :data:`repro.core.basis.SQRT2`; duplicated so this package
#: imports nothing from ``repro.core``).
SQRT2 = math.sqrt(2.0)

#: Minimum batch columns for the recurrence to beat direct ``np.cos``;
#: below this the direct block is used (measured breakeven on one core).
RECURRENCE_MIN_COLS = 64

#: Orders per block of the projection form at full tile width; a narrower
#: tile gets proportionally more orders, so a block always holds at most
#: ``PROJECT_ROWS * PROJECT_COLS`` basis values (1 MB).  Measured on a
#: 2 MB-L2 core, 1 MB blocks beat 2 MB ones (64 x 4096) by 15-30%.
PROJECT_ROWS = 16

#: Batch columns per tile of the projection form: wide enough that each
#: recurrence step amortizes its two ufunc calls.
PROJECT_COLS = 8_192


def _prepare_positions(order: int, positions: NDArray[Any]) -> NDArray[Any]:
    """Validate ``order`` and return ``positions`` as a 1-d float64 array."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 1:
        raise ValueError(f"positions must be 1-d, got shape {positions.shape}")
    return positions


def _prepare(
    order: int, positions: NDArray[Any], out: NDArray[Any] | None
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Validate arguments and return ``(positions, out)`` as float64 arrays."""
    positions = _prepare_positions(order, positions)
    if out is None:
        out = np.empty((order, positions.shape[0]), dtype=np.float64)
    elif out.shape != (order, positions.shape[0]) or out.dtype != np.float64:
        raise ValueError(
            f"out must be float64 of shape {(order, positions.shape[0])}, "
            f"got {out.dtype} {out.shape}"
        )
    return positions, out


def _phi_direct(positions: NDArray[Any], out: NDArray[Any], first: int = 0) -> NDArray[Any]:
    """Direct vectorized evaluation — one ``np.cos`` per table entry.

    Writes orders ``first, first + 1, ...`` into the rows of ``out``.
    Bit-identical to the reference ``basis_matrix`` (same operation order),
    so small-batch calls routed here cannot perturb any answer.
    """
    k = np.arange(first, first + out.shape[0], dtype=np.float64)[:, None]
    np.multiply(k * np.pi, positions[None, :], out=out)
    np.cos(out, out=out)
    out *= SQRT2
    if first == 0:
        out[0] = 1.0
    return out


def _blocks(
    order: int, x: NDArray[Any], buffer: NDArray[Any], direct: bool
) -> Iterator[tuple[int, NDArray[Any]]]:
    """Fill the basis at ``x`` into ``buffer`` one block of orders at a time.

    Yields ``(lo, block)`` once orders ``lo, lo + 1, ...`` are written into
    the leading rows of ``buffer``; the next block overwrites them.  A
    buffer of ``order`` rows is the whole table in one block.  ``direct``
    picks the direct block over the recurrence.  The recurrence reads the
    two rows before the one it writes: for a block's first rows those are
    the previous block's last rows, further down the buffer than anything
    written before they are read (blocks hold at least 3 rows).
    """
    if not direct:
        t = np.cos(np.pi * x)
        t2 = 2.0 * t
    prev1: Any = None
    prev2: Any = SQRT2  # r_0 = sqrt(2) cos(0), so that r_2 = 2t r_1 - sqrt(2)
    rows = buffer.shape[0]
    for lo in range(0, order, rows):
        block = buffer[: min(rows, order - lo)]
        if direct:
            _phi_direct(x, block, first=lo)
        else:
            for k, row in enumerate(block, start=lo):
                if k >= 2:
                    np.multiply(t2, prev1, out=row)
                    row -= prev2
                    prev2, prev1 = prev1, row
                elif k == 1:
                    prev1 = np.multiply(SQRT2, t, out=row)
                else:
                    row.fill(1.0)
        yield lo, block


def _is_direct(order: int, cols: int) -> bool:
    """Whether a batch of ``cols`` columns takes the direct block."""
    return order <= 2 or cols < RECURRENCE_MIN_COLS


def phi_block_numpy(
    order: int, positions: NDArray[Any], out: NDArray[Any] | None = None
) -> NDArray[Any]:
    """Basis table ``P[k, b] = phi_k(positions[b])`` via the fast numpy path.

    Returns a C-contiguous float64 array of shape ``(order, len(positions))``
    (written into ``out`` when given).  Uses the Chebyshev recurrence when
    the batch is wide enough to amortize it, the direct block otherwise.
    """
    positions, out = _prepare(order, positions, out)
    for _ in _blocks(order, positions, out, _is_direct(order, positions.shape[0])):
        pass  # a buffer of ``order`` rows: the whole table is one block
    return out


def phi_block_reference(
    order: int, positions: NDArray[Any], out: NDArray[Any] | None = None
) -> NDArray[Any]:
    """The 1.5.0 per-entry evaluation, kept as the parity/benchmark baseline.

    Bit-identical to ``basis_matrix(np.arange(order), positions)`` — this is
    what the CI bench gate measures the recurrence speedup against.
    """
    positions, out = _prepare(order, positions, out)
    return _phi_direct(positions, out)


def _prepare_weights(positions: NDArray[Any], weights: NDArray[Any]) -> NDArray[Any]:
    """Validate projection weights: float64 of shape ``(B,)`` or ``(B, R)``."""
    cols = np.shape(positions)[0]
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim not in (1, 2) or weights.shape[0] != cols:
        raise ValueError(f"weights must have shape ({cols},) or ({cols}, R), got {weights.shape}")
    return weights


def phi_project_numpy(
    order: int, positions: NDArray[Any], weights: NDArray[Any]
) -> NDArray[Any]:
    """``phi_block_numpy(order, positions) @ weights`` without the table.

    ``weights`` has shape ``(B,)`` or ``(B, R)``; the result has shape
    ``(order,)`` or ``(order, R)``.  The columns are split into equal
    tiles of at most :data:`PROJECT_COLS`.  Within a tile, each block of
    orders is filled by the strategy :func:`phi_block_numpy` picks for the
    whole batch (so the basis values are the table's, bit for bit), then
    contracted with the tile's weights before the next block overwrites it.
    """
    positions = _prepare_positions(order, positions)
    weights = _prepare_weights(positions, weights)
    result = np.zeros((order,) + weights.shape[1:], dtype=np.float64)
    cols = positions.shape[0]
    if cols == 0:
        return result
    tiles = -(-cols // PROJECT_COLS)
    width = -(-cols // tiles)  # equal tiles, none wider than PROJECT_COLS
    buffer = np.empty((min(order, PROJECT_ROWS * PROJECT_COLS // width), width))
    direct = _is_direct(order, cols)
    for start in range(0, cols, width):
        x = positions[start : start + width]
        w = weights[start : start + width]
        for lo, block in _blocks(order, x, buffer[:, : x.shape[0]], direct):
            result[lo : lo + block.shape[0]] += block @ w
    return result
