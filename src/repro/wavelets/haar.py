"""Haar wavelet synopses — the remaining synopsis family of section 2.

The paper surveys wavelet-compressed histograms (its references [6, 7, 23,
24, 27]) as the main alternative transform-based synopsis and argues they
fit streams poorly: keeping the *largest* coefficients (the standard
wavelet thresholding) is order-dependent and hard to maintain under
updates, and Gilbert et al. [12] showed the exact top-coefficient synopsis
can need space linear in the stream.  This module implements the family so
the comparison is reproducible:

* :func:`haar_transform` / :func:`inverse_haar_transform` — the orthonormal
  Haar transform of a frequency vector (power-of-two padded);
* :class:`HaarSynopsis` — a top-``m``-coefficient synopsis built from
  counts, with the same join-estimation algebra as the cosine synopsis
  (Haar is orthonormal, so Parseval gives
  ``J = sum_k w_k(R1) * w_k(R2)`` over coefficients kept by *both*);
* a streaming update path, which must keep the full coefficient vector
  live (O(log n) of them change per tuple) and re-threshold on demand —
  demonstrating exactly the maintenance asymmetry the paper points out.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain, distinct_cells

#: (pass, value) entries a scatter-add block of
#: :meth:`HaarSynopsis.update_indices` may hold even when that is more than
#: three quarters of a pass's worth.  Beyond those bounds, its arrays and the
#: ufunc buffers numpy allocates to broadcast them outgrow the per-pass
#: loop's peak (tracemalloc, 256 to 65,536 rows).
_BLOCK_ENTRIES = 2048


@lru_cache(maxsize=None)
def _levels(size: int) -> tuple[Any, ...]:
    """``(sqrt(size), bits, shifts, halves, scales, -scales)`` of a transform.

    Pass ``l`` (finest first) adds a unit at ``j`` to coefficient
    ``halves[l] + (j >> shifts[l])`` with magnitude ``1 / scales[l]`` and the
    sign of ``j & bits[l]`` (see :meth:`HaarSynopsis.update`).  Each array is
    a read-only ``(passes, 1)`` column.
    """
    levels = np.arange(size.bit_length() - 1)[:, None]
    halves = size >> (levels + 1)
    scales = np.sqrt(size / halves)
    arrays = (1 << levels, levels + 1, halves, scales, -scales)
    for array in arrays:
        array.flags.writeable = False
    return (np.sqrt(size), *arrays)


def _padded_size(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


def haar_transform(values: NDArray[Any]) -> NDArray[Any]:
    """Orthonormal Haar transform of a vector (zero-padded to 2^k).

    Returns the full coefficient vector; ``inverse_haar_transform``
    round-trips exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("haar_transform expects a 1-d vector")
    size = _padded_size(values.shape[0])
    data = np.zeros(size)
    data[: values.shape[0]] = values
    output = np.empty_like(data)
    length = size
    while length > 1:
        half = length // 2
        evens = data[0:length:2]
        odds = data[1:length:2]
        output[:half] = (evens + odds) / np.sqrt(2.0)
        output[half:length] = (evens - odds) / np.sqrt(2.0)
        data[:length] = output[:length]
        length = half
    return data


def inverse_haar_transform(coefficients: NDArray[Any], n: int | None = None) -> NDArray[Any]:
    """Invert :func:`haar_transform`; optionally trim padding back to ``n``."""
    coefficients = np.asarray(coefficients, dtype=float)
    size = coefficients.shape[0]
    if size & (size - 1):
        raise ValueError("coefficient vector length must be a power of two")
    data = coefficients.copy()
    length = 2
    while length <= size:
        half = length // 2
        evens = (data[:half] + data[half:length]) / np.sqrt(2.0)
        odds = (data[:half] - data[half:length]) / np.sqrt(2.0)
        merged = np.empty(length)
        merged[0:length:2] = evens
        merged[1:length:2] = odds
        data[:length] = merged
        length *= 2
    return data if n is None else data[:n]


class HaarSynopsis:
    """Top-``m`` Haar coefficient synopsis of a stream's frequency vector.

    Space accounting mirrors the other methods, with one honest difference
    the paper stresses: unlike cosine coefficients, *which* coefficients
    are retained depends on the data, so each kept coefficient also costs
    its index (``num_stored`` reports both).  The streaming update path
    maintains the full transform (O(log n) coefficients change per tuple)
    and thresholds at read time — the maintenance weakness of the family.
    """

    # Structural parameters: a restored synopsis is always constructed with
    # the same spec first, so only the coefficients travel in checkpoints.
    _checkpoint_exempt = ("_size", "budget", "domain")

    def __init__(self, domain: Domain, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.domain = domain
        self.budget = budget
        self._size = _padded_size(domain.size)
        self._coefficients = np.zeros(self._size)
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def num_stored(self) -> tuple[int, int]:
        """(coefficients kept, indexes kept) under the budget."""
        kept = min(self.budget, int(np.count_nonzero(self._coefficients)))
        return kept, kept

    @classmethod
    def from_counts(cls, domain: Domain, counts: NDArray[Any], budget: int) -> "HaarSynopsis":
        """Build from a frequency vector (transform + threshold lazily)."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (domain.size,):
            raise ValueError(f"counts shape {counts.shape} != ({domain.size},)")
        synopsis = cls(domain, budget)
        synopsis._coefficients = haar_transform(counts)
        synopsis._count = int(round(counts.sum()))
        return synopsis

    def state_dict(self) -> dict[str, Any]:
        """Mutable state only (full coefficient vector + count)."""
        return {"coefficients": self._coefficients.copy(), "count": self._count}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        coefficients = np.asarray(state["coefficients"], dtype=float)
        if coefficients.shape != self._coefficients.shape:
            raise ValueError(
                f"checkpointed synopsis has {coefficients.shape[0]} coefficients, "
                f"this synopsis stores {self._coefficients.shape[0]}"
            )
        self._coefficients = coefficients.copy()
        self._count = int(state["count"])

    def update(self, value: Any, weight: int = 1) -> None:
        """Process one insertion/deletion.

        A unit change at position ``j`` touches exactly one coefficient per
        resolution level — O(log n) work — but the synopsis must keep the
        *full* vector to know, at read time, which coefficients are large.
        """
        index = self.domain.index_of(value)
        size = self._size
        # Overall-average coefficient: sensitivity 1/sqrt(size) per unit.
        self._coefficients[0] += weight / np.sqrt(size)
        # Detail coefficients: the pass over `length` inputs stores its
        # details at positions [length/2, length) of the final layout, and
        # a unit at `index` hits exactly one detail per pass, with sign by
        # the parity of its position within that pass and magnitude
        # (1/sqrt(2))^pass = 1/sqrt(size / half).
        length = size
        position = index
        while length > 1:
            half = length // 2
            sign = 1.0 if position % 2 == 0 else -1.0
            self._coefficients[half + position // 2] += (
                weight * sign / np.sqrt(size / half)
            )
            position //= 2
            length = half
        self._count += weight

    def update_batch(
        self,
        values: Sequence[Any] | NDArray[Any],
        weight: int = 1,
        multiplicity: NDArray[Any] | None = None,
    ) -> None:
        """Process a batch of insertions (``weight=1``) or deletions (-1).

        Identical final state to calling :meth:`update` per value (up to
        float summation order): duplicates are aggregated first
        (``multiplicity`` counts each value that many times), then every
        pass's detail shares go in with one scatter-add per block of
        distinct values: O(distinct values x log n) work.  Passes touch
        disjoint coefficients and a block holds consecutive sorted values,
        so each coefficient gets its shares in ascending value order, as a
        pass-by-pass loop adds them.  A block holds at most one pass's worth
        of entries: three quarters of it, or ``_BLOCK_ENTRIES`` if more.
        """
        self.update_indices(self.domain.indices_of(values), weight, multiplicity)

    def update_indices(
        self, indices: NDArray[Any], weight: int = 1, multiplicity: NDArray[Any] | None = None
    ) -> None:
        """:meth:`update_batch` over domain indices instead of raw values."""
        if indices.size == 0:
            return
        if multiplicity is None:
            unique, counts = np.unique(indices, return_counts=True)
        else:
            unique, _, counts = distinct_cells(indices[:, None], (self.domain.size,), multiplicity)
        mass = counts * float(weight)
        del counts  # the blocks below are the peak; hold only what they read
        root, bits, shifts, halves, scales, negated = _levels(self._size)
        passes = max(1, bits.shape[0])
        entries = max(_BLOCK_ENTRIES, 3 * unique.shape[0] // 4)
        block = min(-(-unique.shape[0] // passes), max(1, entries // passes))
        start = 0
        while start < unique.shape[0]:
            stop = start + block
            # mass / -scale is -(mass / scale) exactly: the sign of update's
            # (weight * sign) / scale
            shares = mass[start:stop] / np.where(unique[start:stop] & bits, negated, scales)
            targets = unique[start:stop] >> shifts
            targets += halves
            np.add.at(self._coefficients, targets.ravel(), shares.ravel())
            start = stop
        # the overall average: no pass above touches coefficient 0
        total = mass.sum()
        self._coefficients[0] += total / root
        self._count += int(total)

    def top_coefficients(self) -> tuple[NDArray[Any], NDArray[Any]]:
        """(indices, values) of the ``budget`` largest-|.| coefficients."""
        order = np.argsort(np.abs(self._coefficients))[::-1][: self.budget]
        return order, self._coefficients[order]

    def reconstruct_counts(self) -> NDArray[Any]:
        """Frequency vector implied by the thresholded synopsis."""
        kept = np.zeros(self._size)
        idx, vals = self.top_coefficients()
        kept[idx] = vals
        return inverse_haar_transform(kept, self.domain.size)


def estimate_join_size(a: HaarSynopsis, b: HaarSynopsis) -> float:
    """Equi-join estimate from two thresholded Haar synopses.

    Haar is orthonormal, so ``sum_v c1(v) c2(v) = sum_k w1_k w2_k``; the
    thresholded estimate keeps each side's top coefficients and sums the
    products over the union of kept positions (a position missing from a
    side contributes its stored value of zero).
    """
    if a.domain.size != b.domain.size:
        raise ValueError("join attributes must share the unified domain")
    idx_a, val_a = a.top_coefficients()
    idx_b, val_b = b.top_coefficients()
    sparse_a = dict(zip(idx_a.tolist(), val_a.tolist()))
    total = 0.0
    lookup_b = dict(zip(idx_b.tolist(), val_b.tolist()))
    for k, wa in sparse_a.items():
        wb = lookup_b.get(k)
        if wb is not None:
            total += wa * wb
    return total
