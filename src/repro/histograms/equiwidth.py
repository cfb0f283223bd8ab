"""Equi-width stream histograms — the simplest synopsis family surveyed.

Histograms (section 2) summarize a frequency vector by per-bucket counts;
join estimation assumes values are uniform within a bucket, so two aligned
histograms estimate

    J_hat = sum_b c1(b) * c2(b) / width(b).

One-dimensional only: the paper's own argument for moving past histograms
is that their space explodes with dimensionality, so they serve here as a
single-attribute baseline and teaching comparison.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain


class EquiWidthHistogram:
    """Per-bucket counts over a fixed ``Domain`` with equal-width buckets.

    Buckets partition the ``n`` domain indices into ``b`` contiguous runs
    whose widths differ by at most one (``numpy.array_split`` semantics).
    Updates are O(1); deletion is a negative update (histogram counters are
    linear, like sketches).
    """

    # Structural parameters: a restored histogram is always constructed with
    # the same spec first, so only the counters travel in checkpoints.
    _checkpoint_exempt = ("boundaries", "domain", "num_buckets")

    def __init__(self, domain: Domain, buckets: int) -> None:
        if buckets < 1:
            raise ValueError(f"bucket count must be >= 1, got {buckets}")
        if buckets > domain.size:
            buckets = domain.size
        self.domain = domain
        self.num_buckets = buckets
        # boundaries[b] .. boundaries[b+1]-1 are the indices of bucket b.
        edges = np.linspace(0, domain.size, buckets + 1)
        self.boundaries = np.ceil(edges).astype(np.int64)
        self.counts = np.zeros(buckets, dtype=float)
        self._count = 0

    @property
    def count(self) -> int:
        """Live tuple count."""
        return self._count

    @property
    def widths(self) -> NDArray[Any]:
        """Number of domain values covered by each bucket."""
        return np.diff(self.boundaries)

    def bucket_of(self, index: int) -> int:
        """Bucket number holding the given domain index."""
        if not 0 <= index < self.domain.size:
            raise ValueError(f"index {index} outside domain of size {self.domain.size}")
        return int(np.searchsorted(self.boundaries, index, side="right") - 1)

    def update(self, value: Any, weight: int = 1) -> None:
        """Insert (``weight=1``) or delete (``weight=-1``) one raw value."""
        index = self.domain.index_of(value)
        self.counts[self.bucket_of(index)] += weight
        self._count += weight

    def update_batch(
        self,
        values: Sequence[Any] | NDArray[Any],
        weight: int = 1,
        multiplicity: NDArray[Any] | None = None,
    ) -> None:
        """Insert or delete a batch of raw values.

        ``multiplicity`` counts each value that many times (the distinct
        values of a :class:`repro.streams.relation.BatchDelta`).
        """
        self.update_indices(self.domain.indices_of(values), weight, multiplicity)

    def update_indices(
        self,
        indices: NDArray[Any],
        weight: int = 1,
        multiplicity: NDArray[Any] | None = None,
    ) -> None:
        """:meth:`update_batch` over domain indices instead of raw values."""
        # bucket b holds [boundaries[b], boundaries[b + 1]): the upper bounds at or below
        buckets = np.searchsorted(self.boundaries[1:], indices, side="right")
        added = np.bincount(buckets, weights=multiplicity, minlength=self.num_buckets)
        self.counts += weight * added
        tuples = len(indices) if multiplicity is None else int(np.asarray(multiplicity).sum())
        self._count += weight * tuples

    def state_dict(self) -> dict[str, Any]:
        """Mutable state only (bucket counts + count), for checkpoints."""
        return {"counts": self.counts.copy(), "count": self._count}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        counts = np.asarray(state["counts"], dtype=float)
        if counts.shape != self.counts.shape:
            raise ValueError(
                f"checkpointed histogram has {counts.shape[0]} buckets, "
                f"this histogram has {self.counts.shape[0]}"
            )
        self.counts = counts.copy()
        self._count = int(state["count"])

    @classmethod
    def from_counts(
        cls, domain: Domain, counts: NDArray[Any], buckets: int
    ) -> "EquiWidthHistogram":
        """Build from a frequency vector over domain indices."""
        hist = cls(domain, buckets)
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (domain.size,):
            raise ValueError(f"counts shape {counts.shape} != ({domain.size},)")
        hist.counts = np.add.reduceat(counts, hist.boundaries[:-1])
        hist._count = int(round(counts.sum()))
        return hist

    @property
    def num_counters(self) -> int:
        """Space unit: stored bucket counters."""
        return self.num_buckets


def estimate_join_size(a: EquiWidthHistogram, b: EquiWidthHistogram) -> float:
    """Uniform-within-bucket equi-join estimate for aligned histograms."""
    if a.domain.size != b.domain.size or a.num_buckets != b.num_buckets:
        raise ValueError("histograms must share the unified domain and bucketing")
    widths = a.widths.astype(float)
    return float(np.sum(a.counts * b.counts / widths))


def estimate_self_join_size(hist: EquiWidthHistogram) -> float:
    """Uniform-within-bucket self-join (second moment) estimate."""
    return float(np.sum(hist.counts**2 / hist.widths.astype(float)))
