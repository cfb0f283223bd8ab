"""Dobra et al.'s domain-partitioned sketches [9].

The third sketch method the paper discusses (sections 2 and 5): "first
partition the underlying join attribute domains and then estimate the join
size of each individual sub-domain using the sketch".  The estimator is a
sum of independent per-partition AGMS estimates; with a good partition the
per-partition self-join masses (which drive sketch variance) are far
smaller than the global ones, so the summed estimate is tighter at equal
total space.

The paper excludes it from its comparisons because it "requires a priori
knowledge of the data distributions (to find a good partition)" — exactly
what this module makes explicit: :func:`equi_mass_partition` derives
boundaries from a pilot frequency vector, and :class:`PartitionedSketch`
will not build without boundaries.  The bench
``benchmarks/bench_partitioned_ablation.py`` quantifies how much that
prior knowledge buys.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basic import AGMSSketch, median_of_means, split_budget
from .hashing import SignFamily


def equi_mass_partition(pilot_counts: NDArray[Any], num_partitions: int) -> NDArray[Any]:
    """Boundaries splitting the domain into ~equal-mass contiguous ranges.

    ``pilot_counts`` is the a-priori distribution knowledge Dobra's method
    assumes (e.g. yesterday's frequencies).  Returns ``num_partitions + 1``
    increasing indices ``b_0 = 0 < b_1 < ... = n``; partition ``p`` covers
    domain indices ``[b_p, b_{p+1})``.
    """
    pilot_counts = np.asarray(pilot_counts, dtype=float)
    if pilot_counts.ndim != 1:
        raise ValueError("pilot counts must be a 1-d frequency vector")
    n = pilot_counts.shape[0]
    if not 1 <= num_partitions <= n:
        raise ValueError(f"partition count must be in [1, {n}], got {num_partitions}")
    total = pilot_counts.sum()
    if total <= 0:
        # no information: fall back to equi-width
        return np.linspace(0, n, num_partitions + 1).astype(np.int64)
    cumulative = np.cumsum(pilot_counts)
    targets = total * np.arange(1, num_partitions) / num_partitions
    inner = np.searchsorted(cumulative, targets, side="left") + 1
    boundaries = np.concatenate([[0], inner, [n]])
    # enforce strict monotonicity (heavy single values can collapse cuts)
    for i in range(1, len(boundaries)):
        boundaries[i] = max(boundaries[i], boundaries[i - 1] + 1)
    boundaries = np.minimum(boundaries, n)
    # trailing duplicates mean fewer effective partitions; dedupe keeps the
    # estimator correct (empty partitions contribute zero).  The cuts are
    # sorted, so dropping repeats is a unique without np.unique, which
    # imports numpy.ma.
    return boundaries[np.diff(boundaries, prepend=-1) != 0].astype(np.int64)


class PartitionedSketch:
    """One AGMS sketch per contiguous sub-domain (Dobra et al. [9]).

    Parameters
    ----------
    boundaries:
        Partition boundaries over the unified join domain, as produced by
        :func:`equi_mass_partition`.  Joinable sketches must share both the
        boundaries and the per-partition sign families (build both sides
        with the same ``seed``).
    budget:
        Total atomic sketches across all partitions; split evenly.
    family:
        Builds the sign family of one partition from ``(width, functions,
        seed)``, here and on :meth:`load_state`.  An engine passes its
        shared families, so both sides of a join hash each partition's
        domain once.
    """

    # Derived from ``boundaries`` in __init__, or the caller's family
    # source; never part of checkpoints.
    _checkpoint_exempt = ("num_partitions", "_family")

    def __init__(
        self,
        boundaries: Sequence[int],
        budget: int,
        seed: int,
        num_medians: int | None = None,
        family: Callable[[int, int, int], SignFamily] = SignFamily,
    ) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        if self.boundaries.ndim != 1 or self.boundaries.shape[0] < 2:
            raise ValueError("at least one partition is required")
        if self.boundaries[0] != 0 or np.any(np.diff(self.boundaries) <= 0):
            raise ValueError("boundaries must start at 0 and strictly increase")
        self.num_partitions = self.boundaries.shape[0] - 1
        per_partition = budget // self.num_partitions
        if per_partition < 1:
            raise ValueError(
                f"budget {budget} cannot give every one of {self.num_partitions} "
                "partitions an atomic sketch"
            )
        self.seed = seed
        s1, s2 = split_budget(per_partition, num_medians)
        self._s1, self._s2 = s1, s2
        self._family = family
        self.sketches = [
            AGMSSketch(self._partition_family(p), s1, s2) for p in range(self.num_partitions)
        ]

    def _partition_family(self, p: int) -> SignFamily:
        """The sign family of partition ``p``."""
        width = int(self.boundaries[p + 1] - self.boundaries[p])
        return self._family(width, self._s1 * self._s2, self.seed * 8191 + p)

    @property
    def domain_size(self) -> int:
        return int(self.boundaries[-1])

    @property
    def count(self) -> int:
        return sum(sk.count for sk in self.sketches)

    @property
    def num_atomic_sketches(self) -> int:
        """Space in the paper's units (total across partitions)."""
        return sum(sk.num_atomic_sketches for sk in self.sketches)

    def partition_of(self, index: int) -> int:
        """Partition number holding a domain index."""
        if not 0 <= index < self.domain_size:
            raise ValueError(f"index {index} outside domain [0, {self.domain_size})")
        return int(np.searchsorted(self.boundaries, index, side="right") - 1)

    def update(self, index: int, weight: int = 1) -> None:
        """Route one arrival/deletion to its partition's sketch."""
        p = self.partition_of(index)
        self.sketches[p].update(int(index - self.boundaries[p]), weight=weight)

    def update_batch(self, indices: NDArray[Any], weight: int = 1) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        partitions = np.searchsorted(self.boundaries, indices, side="right") - 1
        for p in range(self.num_partitions):
            mask = partitions == p
            if mask.any():
                self.sketches[p].update_batch(
                    indices[mask] - self.boundaries[p], weight=weight
                )

    def state_dict(self) -> dict[str, Any]:
        """Full mutable state, including the partition structure.

        Boundaries are part of the state (not just the per-partition
        atoms) because they are derived from a pilot distribution at
        registration time — a restored engine re-registers the query
        against *current* counts and would pick different cuts, so
        :meth:`load_state` must be able to rebuild the exact partition
        geometry the checkpointed sketch was using.
        """
        return {
            "boundaries": self.boundaries.copy(),
            "seed": self.seed,
            "s1": self._s1,
            "s2": self._s2,
            "sketches": [sk.state_dict() for sk in self.sketches],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place.

        Rebuilds the partition structure (boundaries, sign families, one
        sub-sketch per partition) and then restores every sub-sketch's
        atoms, so the object ends up indistinguishable from the one that
        was checkpointed while keeping its identity for any estimate
        closures holding a reference to it.
        """
        boundaries = np.asarray(state["boundaries"], dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.shape[0] < 2:
            raise ValueError("checkpointed boundaries are not a valid partition")
        if boundaries[0] != 0 or np.any(np.diff(boundaries) <= 0):
            raise ValueError("checkpointed boundaries must start at 0 and increase")
        s1, s2 = int(state["s1"]), int(state["s2"])
        if s1 < 1 or s2 < 1:
            raise ValueError("checkpointed sketch geometry must be positive")
        num_partitions = boundaries.shape[0] - 1
        if len(state["sketches"]) != num_partitions:
            raise ValueError(
                f"checkpoint holds {len(state['sketches'])} partition sketches "
                f"for {num_partitions} partitions"
            )
        self.boundaries = boundaries
        self.num_partitions = num_partitions
        self.seed = int(state["seed"])
        self._s1, self._s2 = s1, s2
        self.sketches = []
        for p, sub_state in enumerate(state["sketches"]):
            sub = AGMSSketch(self._partition_family(p), s1, s2)
            sub.load_state(sub_state)
            self.sketches.append(sub)

    @classmethod
    def from_counts(
        cls,
        counts: NDArray[Any],
        boundaries: Sequence[int],
        budget: int,
        seed: int,
        num_medians: int | None = None,
        family: Callable[[int, int, int], SignFamily] = SignFamily,
    ) -> "PartitionedSketch":
        """Build from a frequency vector in one pass."""
        counts = np.asarray(counts, dtype=float)
        sketch = cls(boundaries, budget, seed, num_medians, family)
        if counts.shape != (sketch.domain_size,):
            raise ValueError(
                f"counts shape {counts.shape} != ({sketch.domain_size},)"
            )
        for p in range(sketch.num_partitions):
            lo, hi = int(sketch.boundaries[p]), int(sketch.boundaries[p + 1])
            family = sketch.sketches[p].families[0]
            sketch.sketches[p] = AGMSSketch.from_counts(
                family, counts[lo:hi], sketch._s1, sketch._s2
            )
        return sketch

    def compatible_with(self, other: "PartitionedSketch") -> bool:
        return (
            np.array_equal(self.boundaries, other.boundaries)
            and self.seed == other.seed
            and self._s1 == other._s1
            and self._s2 == other._s2
        )


def estimate_join_size(a: PartitionedSketch, b: PartitionedSketch) -> float:
    """Dobra's estimate: the sum of the per-partition AGMS estimates."""
    if not a.compatible_with(b):
        raise ValueError(
            "partitioned sketches must share boundaries and sign families"
        )
    total = 0.0
    for sk_a, sk_b in zip(a.sketches, b.sketches):
        total += median_of_means(sk_a.atoms * sk_b.atoms, a._s1, a._s2)
    return total
