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
* :class:`HaarSynopsis` — a top-``m``-coefficient synopsis with the same
  join-estimation algebra as the cosine synopsis (Haar is orthonormal, so
  Parseval gives ``J = sum_k w_k(R1) * w_k(R2)`` over coefficients kept by
  *both*);
* a streaming update path, which must keep the full transform live (O(log
  n) of its entries change per tuple) and re-threshold on demand —
  demonstrating exactly the maintenance asymmetry the paper points out.

The live state is the *unnormalized* transform in int64: entry 0 is the
live count and each detail is a left-half sum minus a right-half sum.  It
is a linear function of the stream's multiset with no rounding, so any
batch framing, and any sum of per-shard states, gives the same integers,
and the thresholded answer read from them is bit-identical.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain


@lru_cache(maxsize=None)
def _norms(size: int) -> NDArray[Any]:
    """Divisors taking the unnormalized transform of ``size`` to the orthonormal one.

    A detail at ``[h, 2h)`` spans blocks of ``size / h`` values and is
    divided by ``sqrt(size / h)``; the total at 0 by ``sqrt(size)``, as a
    detail at ``h = 1`` is.  Read-only.
    """
    halves = np.concatenate(([1], 1 << np.arange(size.bit_length() - 1)))
    norms = np.sqrt(size / np.repeat(halves, halves))
    norms.flags.writeable = False
    return norms


def _padded_size(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


def _pyramid(values: NDArray[Any]) -> NDArray[Any]:
    """The unnormalized transform of a power-of-two-length vector, in its dtype.

    Each pass turns the block sums of one level into the next level's sums
    (``evens + odds``) and details (``evens - odds``); the details of the
    pass over ``2h`` sums land at ``[h, 2h)``, the grand total at 0.
    """
    out = np.empty_like(values)
    sums = values
    while sums.shape[0] > 1:
        evens, odds = sums[0::2], sums[1::2]
        out[evens.shape[0] : sums.shape[0]] = evens - odds
        sums = evens + odds
    out[0] = sums[0]
    return out


def _top(magnitudes: NDArray[Any], budget: int) -> NDArray[Any]:
    """Mask of the ``budget`` largest ``magnitudes``.

    A tie at the threshold keeps the lowest indices.
    """
    size = magnitudes.shape[0]
    if budget >= size:
        return np.ones(size, dtype=bool)
    threshold = np.partition(magnitudes, size - budget)[size - budget]
    kept = magnitudes > threshold
    ties = np.flatnonzero(magnitudes == threshold)
    kept[ties[: budget - np.count_nonzero(kept)]] = True
    return kept


def haar_transform(values: NDArray[Any]) -> NDArray[Any]:
    """Orthonormal Haar transform of a vector (zero-padded to 2^k).

    Returns the full coefficient vector; ``inverse_haar_transform``
    round-trips it.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("haar_transform expects a 1-d vector")
    size = _padded_size(values.shape[0])
    data = np.zeros(size)
    data[: values.shape[0]] = values
    return _pyramid(data) / _norms(size)


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
    its index (``num_stored`` reports both).  The synopsis maintains the
    full unnormalized transform in int64 (O(log n) entries change per
    tuple) and normalizes and thresholds at read time — the maintenance
    weakness of the family.
    """

    # Structural parameters: a restored synopsis is always constructed with
    # the same spec first, so only the transform travels in checkpoints.
    _checkpoint_exempt = ("_size", "budget", "domain")

    def __init__(self, domain: Domain, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.domain = domain
        self.budget = budget
        self._size = _padded_size(domain.size)
        #: The unnormalized transform: the live count at 0, and at
        #: ``[h, 2h)`` each block's left-half sum minus its right-half sum.
        self._details = np.zeros(self._size, dtype=np.int64)

    @property
    def count(self) -> int:
        return int(self._details[0])

    @property
    def num_stored(self) -> tuple[int, int]:
        """(coefficients kept, indexes kept) under the budget."""
        kept = min(self.budget, int(np.count_nonzero(self._details)))
        return kept, kept

    @classmethod
    def from_counts(cls, domain: Domain, counts: NDArray[Any], budget: int) -> "HaarSynopsis":
        """Build from a frequency vector of integers (in any numeric dtype)."""
        counts = np.asarray(counts)
        if counts.shape != (domain.size,):
            raise ValueError(f"counts shape {counts.shape} != ({domain.size},)")
        if counts.dtype.kind not in "biu" and not (
            np.isfinite(counts).all() and np.array_equal(counts, np.rint(counts))
        ):
            raise ValueError("counts must be finite integers")
        synopsis = cls(domain, budget)
        padded = np.zeros(synopsis._size, dtype=np.int64)
        padded[: domain.size] = counts
        synopsis._details = _pyramid(padded)
        return synopsis

    def state_dict(self) -> dict[str, Any]:
        """Mutable state only: the unnormalized transform."""
        return {"details": self._details.copy()}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        details = np.asarray(state["details"], dtype=np.int64)
        if details.shape != self._details.shape:
            raise ValueError(
                f"checkpointed synopsis has {details.shape[0]} coefficients, "
                f"this synopsis stores {self._details.shape[0]}"
            )
        self._details = details.copy()

    def update(self, value: Any, weight: int = 1) -> None:
        """Process one insertion/deletion.

        A unit change at position ``j`` touches exactly one detail per
        resolution level — O(log n) work — but the synopsis must keep the
        *full* transform to know, at read time, which coefficients are large.
        """
        self.update_indices(np.array([self.domain.index_of(value)]), weight)

    def update_batch(
        self,
        values: Sequence[Any] | NDArray[Any],
        weight: int = 1,
        multiplicity: NDArray[Any] | None = None,
    ) -> None:
        """Process a batch of insertions (``weight=1``) or deletions (-1).

        ``multiplicity`` counts each value that many times.  The final
        state equals calling :meth:`update` per value, whatever the batch
        framing: the transform is integer.
        """
        self.update_indices(self.domain.indices_of(values), weight, multiplicity)

    def update_indices(
        self, indices: NDArray[Any], weight: int = 1, multiplicity: NDArray[Any] | None = None
    ) -> None:
        """:meth:`update_batch` over domain indices, every level at once.

        At the level of ``2h`` block sums (``h = size >> (s + 1)``), value
        ``j`` lies in block ``b = j >> s``, which moves the detail at
        ``h + (b >> 1)`` up by its mass when ``b`` is even (the left half)
        and down when it is odd.  When those ``(levels, rows)`` targets
        would outnumber the transform's entries, the batch's frequency
        vector is transformed and added instead: the same integers, in
        time and memory linear in ``rows + size``.
        """
        if indices.size == 0:
            return
        indices = np.asarray(indices, dtype=np.int64)
        mass = weight * (
            np.ones(indices.shape[0], dtype=np.int64)
            if multiplicity is None
            else np.asarray(multiplicity, dtype=np.int64)
        )
        shifts = np.arange(self._size.bit_length() - 1)[:, None]
        if shifts.shape[0] * indices.shape[0] > self._size:
            counts = np.zeros(self._size, dtype=np.int64)
            np.add.at(counts, indices, mass)
            self._details += _pyramid(counts)
            return
        self._details[0] += mass.sum()
        blocks = indices >> shifts
        targets = (self._size >> (shifts + 1)) + (blocks >> 1)
        np.add.at(self._details, targets.ravel(), np.where(blocks & 1, -mass, mass).ravel())

    def _normalized(self) -> NDArray[Any]:
        """The full orthonormal coefficient vector (:func:`haar_transform` of the counts)."""
        return self._details / _norms(self._size)

    def top_coefficients(self) -> tuple[NDArray[Any], NDArray[Any]]:
        """(indices, values) of the ``budget`` largest-|.| coefficients, by index.

        A tie at the threshold keeps the lowest indices.
        """
        coefficients = self._normalized()
        kept = np.flatnonzero(_top(np.abs(coefficients), self.budget))
        return kept, coefficients[kept]

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
    products over the positions both sides keep (a position missing from a
    side contributes its stored value of zero).
    """
    if a.domain.size != b.domain.size:
        raise ValueError("join attributes must share the unified domain")
    wa, wb = a._normalized(), b._normalized()
    both = _top(np.abs(wa), a.budget) & _top(np.abs(wb), b.budget)
    return float(wa[both] @ wb[both])
