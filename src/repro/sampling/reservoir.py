"""Stream sampling primitives: Bernoulli and reservoir samples.

Sampling is the oldest synopsis family the paper surveys (its references
[1, 14, 15, 22, 28]; [15] is Hou, Özsoyoğlu and Taneja's PODS 1988
"Statistical Estimators for Relational Algebra Expressions" — the titled
paper of this reproduction).  These classes provide the stream-side
machinery; :mod:`repro.sampling.estimators` builds join-size estimators on
top of them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from ..core.normalization import distinct_cells
from ..sketches.hashing import HASH_BLOCK_CELLS


class BernoulliSample:
    """Keep each arriving tuple independently with probability ``p``.

    Tuples are cells of a fixed index grid ``shape``, one index per
    attribute.  The sample stores its distinct kept cells as sorted flat
    (C-order) ids in ``cells`` and their multiplicities in ``counts``, both
    int64 — 16 bytes per distinct sampled cell.  Inclusion probabilities
    are exact and independent, which is what makes the cross-product join
    estimator unbiased.
    """

    # Structural: the grid comes from the query spec, not from checkpoints.
    _checkpoint_exempt = ("shape",)

    def __init__(
        self, probability: float, shape: Sequence[int], seed: int | None = None
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"sampling probability must be in (0, 1], got {probability}")
        self.probability = probability
        self.shape = tuple(int(n) for n in shape)
        if math.prod(self.shape) > np.iinfo(np.int64).max:
            raise ValueError(f"grid {self.shape} has more cells than an int64 can number")
        self._rng = np.random.default_rng(seed)
        self.cells: NDArray[Any] = np.zeros(0, dtype=np.int64)
        self.counts: NDArray[Any] = np.zeros(0, dtype=np.int64)
        self.sampled_size = 0
        self.stream_size = 0

    @classmethod
    def from_counts(
        cls, counts: NDArray[Any], probability: float, rng: np.random.Generator
    ) -> "BernoulliSample":
        """The sample of a count tensor whose tuples were each offered once.

        Draws the sample's own seed from ``rng``, then thins every nonzero
        cell binomially — distributionally identical to one coin per tuple —
        in C order, one block of ``HASH_BLOCK_CELLS`` cells at a time.
        ``rng`` draws the same binomials whatever the blocking.  The grid
        is ``counts.shape``.
        """
        counts = np.asarray(counts)
        sample = cls(probability, counts.shape, seed=int(rng.integers(1 << 31)))
        flat = counts.ravel()
        cells, kept = [sample.cells], [sample.counts]
        for start in range(0, flat.shape[0], HASH_BLOCK_CELLS):
            part = flat[start : start + HASH_BLOCK_CELLS]
            held = np.flatnonzero(part)
            draws = rng.binomial(part[held].astype(np.int64, copy=False), probability)
            sample.sampled_size += int(draws.sum())
            cells.append(held[draws > 0] + start)
            kept.append(draws[draws > 0])
        sample.cells, sample.counts = np.concatenate(cells), np.concatenate(kept)
        sample.stream_size = int(flat.sum())
        return sample

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def insert(self, cell: int | Sequence[int]) -> None:
        """Offer one arriving tuple, given by its grid index (one per axis)."""
        self.insert_batch(np.reshape(cell, (1, -1)))

    def insert_many(self, cells: Iterable[int | Sequence[int]]) -> None:
        for cell in cells:
            self.insert(cell)

    def insert_batch(self, cells: ArrayLike) -> NDArray[Any]:
        """Offer a batch of tuples by grid index; returns the acceptance mask.

        ``cells`` is a ``(B, ndim)`` index array, or ``(B,)`` on a 1-d grid.
        Draws all coins in one vectorized call.  Because numpy generators
        produce the same double stream whether drawn one at a time or in
        blocks, the kept set is *bit-identical* to offering each cell via
        :meth:`insert` in order — batch and sequential ingestion agree
        exactly, not just in distribution.  Only the kept cells are
        flattened and merged into the sorted arrays.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if not len(cells):
            return np.zeros(0, dtype=bool)
        mask = self._rng.random(len(cells)) < self.probability
        self.stream_size += len(cells)
        kept = cells[mask].reshape(-1, self.ndim)
        if len(kept):
            # distinct_cells raises on a cell off the grid.
            flat, _, counts = distinct_cells(kept, self.shape)
            self._add(flat, counts)
            self.sampled_size += len(kept)
        return mask

    def _add(self, cells: NDArray[Any], counts: NDArray[Any]) -> None:
        """Merge distinct sorted flat ``cells`` with multiplicities ``counts``."""
        at = np.searchsorted(self.cells, cells)
        held = at < np.searchsorted(self.cells, cells, side="right")
        self.counts[at[held]] += counts[held]
        fresh = ~held
        if fresh.any():
            self.cells = np.insert(self.cells, at[fresh], cells[fresh])
            self.counts = np.insert(self.counts, at[fresh], counts[fresh])

    def state_dict(self) -> dict[str, Any]:
        """Full mutable state, including the generator's bit state.

        Capturing ``bit_generator.state`` is what makes recovery exact:
        a restored sample flips the *same* coins for post-restore
        arrivals as the uncrashed original would have, so checkpointed
        and continuous runs stay bit-identical.  ``cells`` and ``counts``
        are stored in the narrowest integer dtype that holds them.
        """
        return {
            "probability": self.probability,
            "rng_state": self._rng.bit_generator.state,
            "cells": _narrowest(self.cells),
            "counts": _narrowest(self.counts),
            "sampled_size": self.sampled_size,
            "stream_size": self.stream_size,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        self.probability = float(state["probability"])
        self._rng.bit_generator.state = state["rng_state"]
        self.cells = np.asarray(state["cells"]).astype(np.int64)
        self.counts = np.asarray(state["counts"]).astype(np.int64)
        self.sampled_size = int(state["sampled_size"])
        self.stream_size = int(state["stream_size"])

    def delete(self, value: Hashable) -> None:
        """Deletion is not supported by Bernoulli samples.

        Whether the deleted tuple is *in* the sample depends on a coin flip
        made at its arrival that the sample did not record; section 2 of the
        paper notes exactly this kind of difficulty for sampling under
        dynamic streams.
        """
        raise NotImplementedError(
            "Bernoulli samples cannot process deletions; this limitation is "
            "part of why the paper moves away from sampling for streams"
        )


class ReservoirSample:
    """Classic Algorithm-R reservoir of fixed capacity ``k``.

    Maintains a uniform without-replacement sample of everything seen so
    far, regardless of stream length.
    """

    def __init__(self, capacity: int, seed: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self.items: list[Hashable] = []
        self.stream_size = 0

    def insert(self, value: Hashable) -> None:
        """Offer one arriving tuple to the reservoir."""
        self.stream_size += 1
        if len(self.items) < self.capacity:
            self.items.append(value)
            return
        j = int(self._rng.integers(0, self.stream_size))
        if j < self.capacity:
            self.items[j] = value

    def insert_many(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.insert(value)

    @property
    def sampled_size(self) -> int:
        return len(self.items)

    def value_counts(self) -> Counter[Any]:
        """Multiplicities of the sampled values."""
        return Counter(self.items)


def _narrowest(values: NDArray[Any]) -> NDArray[Any]:
    """Non-negative ``values`` in the narrowest integer dtype that holds them."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))
