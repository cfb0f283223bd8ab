"""The basic AGMS ("tug-of-war") sketch of Alon et al. [2, 3].

An *atomic sketch* is the random linear projection
``X = sum_v f(v) * xi(v)`` of a stream's frequency vector onto 4-wise
independent ±1 variables.  For two streams sharing the same ``xi`` family,
``E[X1 * X2]`` equals the equi-join size; variance is tamed by averaging
``s1`` independent atomic sketches and taking the median of ``s2`` such
group means (the paper's "averaging and selecting the group median").

Multi-attribute relations (needed for the paper's multi-join chain queries,
following Dobra et al. [9] / Alon et al. [3]) use one independent sign
family per join attribute and project onto the *product* of the signs:
``X = sum_t prod_j xi_j(t_j)``; the product of the relations' atomic
sketches is then an unbiased estimator of the chain-join size.

Space accounting follows the paper: the size of a sketch is its number of
atomic sketches (``s1 * s2``), directly comparable to a cosine synopsis'
number of coefficients.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain, distinct_cells
from .hashing import SignFamily, _block_slices

#: Bytes of float signs one step of a registration's contraction holds:
#: 257 values at ``S = 255`` in float64, 514 in float32.  A product's inner
#: dimension is the block's width, and BLAS runs a narrow one slowly: on
#: R2's 1,024 x 256 chain tensor, blocks of 128 float64 values take 1.16x
#: as long (two OpenBLAS threads), while 514 values save 4% more for
#: 1.1 MB more.  In float32 on one thread, 1,024 values register in
#: 0.12-0.19 ms in 514-value blocks and 0.14-0.22 ms in 257-value ones.
CONTRACTION_BLOCK_BYTES = 1 << 19

#: Integer counts whose absolute values sum below this contract in
#: float32: every partial sum is then an integer float32 holds exactly.
FLOAT32_EXACT_SUM = 1 << 24


def split_budget(budget: int, num_medians: int | None = None) -> tuple[int, int]:
    """Split an atomic-sketch budget into (means ``s1``, medians ``s2``).

    The paper fixes total space and leaves the geometry free; the customary
    choice is a small odd number of median groups.  We default to 5 groups,
    dropping to 3 / 1 for very small budgets where median groups would
    starve the averaging.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if num_medians is None:
        if budget >= 100:
            num_medians = 5
        elif budget >= 30:
            num_medians = 3
        else:
            num_medians = 1
    if num_medians < 1 or num_medians > budget:
        raise ValueError("median group count must be in [1, budget]")
    if num_medians % 2 == 0:
        num_medians -= 1
    return budget // num_medians, num_medians


class AGMSSketch:
    """A grid of ``s1 x s2`` atomic sketches over one or more attributes.

    Parameters
    ----------
    families:
        One :class:`SignFamily` per attribute of the relation.  All families
        must have ``s1 * s2`` functions.  Joinable sketches must share the
        family of the joined attribute.
    num_means / num_medians:
        The averaging / median group geometry (``s1``, ``s2``).
    """

    # Structural parameters: a restored sketch is always constructed with the
    # same spec (and seed) first, so only the atoms travel in checkpoints.
    _checkpoint_exempt = ("families", "num_means", "num_medians")

    def __init__(
        self,
        families: Sequence[SignFamily] | SignFamily,
        num_means: int,
        num_medians: int,
    ) -> None:
        if isinstance(families, SignFamily):
            families = [families]
        self.families: tuple[SignFamily, ...] = tuple(families)
        if not self.families:
            raise ValueError("at least one sign family is required")
        if num_means < 1 or num_medians < 1:
            raise ValueError("num_means and num_medians must be >= 1")
        self.num_means = num_means
        self.num_medians = num_medians
        size = num_means * num_medians
        for fam in self.families:
            if fam.num_functions != size:
                raise ValueError(
                    f"family has {fam.num_functions} functions, sketch needs {size}"
                )
        self.atoms = np.zeros(size, dtype=float)
        self._count = 0

    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        return len(self.families)

    @property
    def count(self) -> int:
        """Live tuple count (insertions minus deletions)."""
        return self._count

    @property
    def num_atomic_sketches(self) -> int:
        """The paper's space unit for sketches."""
        return self.atoms.shape[0]

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def _row_signs(self, rows: NDArray[Any]) -> NDArray[Any]:
        """Product of per-attribute signs for a batch: ``(B, S)`` ±1 int8."""
        prod = self.families[0].signs(rows[:, 0]).T
        for j, fam in enumerate(self.families[1:], start=1):
            prod = prod * fam.signs(rows[:, j]).T
        return prod

    def update(self, indices: Sequence[int] | int, weight: int = 1) -> None:
        """Process one arrival (``weight=1``) or deletion (``weight=-1``).

        ``indices`` are domain indices (one per attribute).  Sketches are
        linear, so deletion is just a negative-weight update — the property
        the paper credits for sketch updatability.
        """
        if np.isscalar(indices):
            indices = [int(indices)]  # type: ignore[list-item]
        rows = np.asarray(indices, dtype=np.int64)[None, :]
        if rows.shape[1] != self.ndim:
            raise ValueError(f"expected {self.ndim} attribute indices, got {rows.shape[1]}")
        self.atoms += weight * self._row_signs(rows)[0].astype(float)
        self._count += weight

    def update_batch(
        self,
        rows: NDArray[Any],
        weight: int = 1,
        multiplicity: NDArray[Any] | None = None,
        chunk: int = 256,
    ) -> None:
        """Process a batch of arrivals/deletions of domain-index tuples.

        The atoms move by ``weight * counts @ signs(cells)`` over the
        batch's distinct cells, so each distinct tuple is read once however
        often it repeats.  A tabled family hashes the batch's new values
        once, up front, and the contraction reads their signs from the
        table.  ``multiplicity`` gives each row's count when the rows are
        already distinct (a :class:`repro.streams.relation.BatchDelta`);
        without it the rows are collapsed here.  The contraction runs in
        float64, where every partial sum is an integer below ``2^53``, so the
        atoms are identical to one ``update`` per tuple under any batch
        framing.  ``chunk`` bounds the ``(chunk, S)`` sign intermediates; a
        batch of one chunk hashes its new values as it reads their signs.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows[:, None]
        if rows.shape[1] != self.ndim:
            raise ValueError(f"rows must have {self.ndim} columns, got {rows.shape[1]}")
        if multiplicity is None:
            sizes = [f.domain_size for f in self.families]
            _, first, multiplicity = distinct_cells(rows, sizes)
            rows = rows[first]
        counts = np.asarray(multiplicity, dtype=np.int64)
        weights = counts * float(weight)
        if rows.shape[0] > chunk:
            for j, family in enumerate(self.families):
                family.fill(rows[:, j])
        for start in range(0, rows.shape[0], chunk):
            part = slice(start, start + chunk)
            self.atoms += weights[part] @ self._row_signs(rows[part]).astype(float)
        self._count += weight * int(counts.sum())

    def state_dict(self) -> dict[str, Any]:
        """Mutable state only (atoms + count), for engine checkpoints."""
        return {"atoms": self.atoms.copy(), "count": self._count}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        atoms = np.asarray(state["atoms"], dtype=float)
        if atoms.shape != self.atoms.shape:
            raise ValueError(
                f"checkpointed sketch has {atoms.shape[0]} atomic sketches, "
                f"this sketch holds {self.atoms.shape[0]}"
            )
        self.atoms = atoms.copy()
        self._count = int(state["count"])

    @classmethod
    def from_counts(
        cls,
        families: Sequence[SignFamily] | SignFamily,
        counts: NDArray[Any],
        num_means: int,
        num_medians: int,
    ) -> "AGMSSketch":
        """Build a sketch from a joint frequency tensor in one pass.

        Equivalent to streaming every tuple through :meth:`update`, computed
        by contracting the count tensor with each attribute's signs, one
        block of values at a time: no call holds more than
        :data:`CONTRACTION_BLOCK_BYTES` of float signs beyond the family's
        own table.  Integer counts whose absolute values sum below
        :data:`FLOAT32_EXACT_SUM` contract in float32, at twice the values
        per block, and any other counts in float64.
        """
        sketch = cls(families, num_means, num_medians)
        counts = np.asarray(counts)
        expected = tuple(f.domain_size for f in sketch.families)
        if counts.shape != expected:
            raise ValueError(f"counts shape {counts.shape} does not match domains {expected}")
        if not counts.any():
            return sketch  # contracting zeros needs no signs
        # Contract the value axes against the attributes' (S, n_j) signs one
        # by one, keeping S as a shared leading axis.  The first axis adds one
        # BLAS matmul per block over the flattened remaining axes; each later
        # one consumes axis 1, the next attribute in declaration order.  Every
        # partial sum is an integer no larger in magnitude than the counts'
        # absolute sum, below 2^24 in float32 and below 2^53 in float64, so
        # the result is exact in any summation order and under any blocking.
        dtype = np.dtype(np.float32 if _float32_exact(counts) else np.float64)
        first, *rest = sketch.families
        size = sketch.num_atomic_sketches
        tensor = np.zeros((size, counts[:1].size), dtype=dtype)
        product = np.empty_like(tensor)
        for values, signs in _domain_signs(first, dtype):
            block = counts[values].reshape(signs.shape[1], -1).astype(dtype)
            np.matmul(signs.astype(dtype), block, out=product)
            tensor += product
        tensor = tensor.reshape((size,) + counts.shape[1:])
        for fam in rest:
            contracted = np.zeros((size,) + tensor.shape[2:], dtype=dtype)
            for values, signs in _domain_signs(fam, dtype):
                contracted += np.einsum("sj...,sj->s...", tensor[:, values], signs.astype(dtype))
            tensor = contracted
        sketch.atoms = tensor.astype(np.float64, copy=False)
        sketch._count = int(counts.sum())
        return sketch

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #

    def _grouped(self, values: NDArray[Any]) -> NDArray[Any]:
        return values.reshape(self.num_medians, self.num_means)

    def compatible_with(self, other: "AGMSSketch", self_axis: int, other_axis: int) -> bool:
        """Whether a join on the given attribute axes is well-defined."""
        return (
            self.num_means == other.num_means
            and self.num_medians == other.num_medians
            and self.families[self_axis].compatible_with(other.families[other_axis])
        )


def _float32_exact(counts: NDArray[Any]) -> bool:
    """Whether ``counts`` are integers whose absolute values sum below 2^24.

    Each value is bounded first, so neither ``abs`` nor the sum can wrap.
    """
    if counts.dtype.kind not in "iu":
        return False
    low, high = counts.min(), counts.max()
    if low <= -FLOAT32_EXACT_SUM or high >= FLOAT32_EXACT_SUM:
        return False
    magnitudes = counts if low >= 0 else np.abs(counts)
    return bool(magnitudes.sum() < FLOAT32_EXACT_SUM)


def _domain_signs(
    family: SignFamily, dtype: np.dtype[Any]
) -> Iterator[tuple[slice, NDArray[np.int8]]]:
    """Yield ``(values, signs)`` over the family's domain, one block each.

    ``signs`` is the block's ``(S, len(values))`` int8 signs, read from the
    table when the family keeps one (filled in one pass first) and hashed
    otherwise; their copy in ``dtype`` takes at most
    :data:`CONTRACTION_BLOCK_BYTES`.  Callers cast a block where they use
    it, so no float copy outlives its product.
    """
    family.fill(np.arange(family.domain_size))
    block_cells = CONTRACTION_BLOCK_BYTES // dtype.itemsize
    for values in _block_slices(family.domain_size, family.num_functions, block_cells):
        yield values, family.signs(np.arange(values.start, values.stop))


def median(values: NDArray[Any], axis: int = -1) -> NDArray[Any]:
    """``np.median(values, axis)``, bit for bit, without importing ``numpy.ma``.

    ``np.median`` checks its result for NaNs through ``np.ma``, so the
    first AGMS answer of a process would import the masked-array package
    and keep it resident.  Here the sort puts any NaN last, and the last
    element carries it into the result.
    """
    ordered = np.sort(values, axis=axis)
    n = ordered.shape[axis]
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    result = np.take(ordered, middle, axis=axis).mean(axis=axis)
    last = np.take(ordered, -1, axis=axis)
    return np.where(np.isnan(last), last, result)


def median_of_means(products: NDArray[Any], num_means: int, num_medians: int) -> float:
    """The AGMS estimate: median over ``s2`` groups of ``s1``-means."""
    if products.shape[0] != num_means * num_medians:
        raise ValueError("product vector does not match the sketch geometry")
    groups = products.reshape(num_medians, num_means)
    return float(median(groups.mean(axis=1)))


def estimate_self_join_size(sketch: AGMSSketch) -> float:
    """Estimate the self-join size (second frequency moment) of a stream.

    ``E[X^2] = sum_v f(v)^2`` for each atomic sketch (Alon et al. [2]).
    """
    if sketch.ndim != 1:
        raise ValueError("self-join estimation expects a single-attribute sketch")
    return median_of_means(sketch.atoms**2, sketch.num_means, sketch.num_medians)


def estimate_join_size(a: AGMSSketch, b: AGMSSketch) -> float:
    """Estimate a single equi-join size from two sketches sharing a family."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("use estimate_multijoin_size for multi-attribute sketches")
    if not a.compatible_with(b, 0, 0):
        raise ValueError("sketches do not share a sign family; joins are undefined")
    return median_of_means(a.atoms * b.atoms, a.num_means, a.num_medians)


def estimate_join_size_with_spread(a: AGMSSketch, b: AGMSSketch) -> tuple[float, float]:
    """Join estimate plus the dispersion of its median groups.

    Returns ``(estimate, spread)`` where ``spread`` is the standard
    deviation of the ``s2`` group means whose median is the estimate — a
    free, data-driven uncertainty signal the grid already paid for.  A
    spread comparable to (or exceeding) the estimate itself flags the
    regimes where the paper reports sketches breaking down.
    """
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("use estimate_multijoin_size for multi-attribute sketches")
    if not a.compatible_with(b, 0, 0):
        raise ValueError("sketches do not share a sign family; joins are undefined")
    groups = (a.atoms * b.atoms).reshape(a.num_medians, a.num_means).mean(axis=1)
    return float(median(groups)), float(np.std(groups))


def estimate_multijoin_size(sketches: Sequence[AGMSSketch]) -> float:
    """Estimate a multi-join chain query from per-relation sketches.

    The caller is responsible for having built the sketches so that every
    join predicate's two attribute slots share a sign family and every
    attribute of every relation participates in exactly one predicate (the
    paper's chain-query shape); then ``E[prod_i X_i]`` is the join size.
    """
    if len(sketches) < 2:
        raise ValueError("a join needs at least two sketches")
    first = sketches[0]
    products = np.ones_like(first.atoms)
    for sk in sketches:
        if (
            sk.num_means != first.num_means
            or sk.num_medians != first.num_medians
        ):
            raise ValueError("all sketches must share the same (s1, s2) geometry")
        products = products * sk.atoms
    return median_of_means(products, first.num_means, first.num_medians)


def slice_sketch(sketch: AGMSSketch, num_means: int, num_medians: int) -> AGMSSketch:
    """A smaller sketch using the first ``s1*s2`` atomic sketches of a big one.

    Valid because atomic sketches are mutually independent and the
    polynomial hash family is a deterministic prefix-stable function of its
    seed: ``SignFamily(n, S', seed)`` generates exactly the first ``S'``
    functions of ``SignFamily(n, S, seed)``.  Lets the experiment harness
    sweep space budgets from a single maintained sketch, the same way
    :meth:`CosineSynopsis.truncated` serves the cosine side.
    """
    size = num_means * num_medians
    if size > sketch.num_atomic_sketches:
        raise ValueError(
            f"cannot grow a sketch ({size} > {sketch.num_atomic_sketches} atoms)"
        )
    families = [
        SignFamily(f.domain_size, size, seed=f.seed) for f in sketch.families
    ]
    smaller = AGMSSketch(families, num_means, num_medians)
    smaller.atoms = sketch.atoms[:size].copy()
    smaller._count = sketch._count
    return smaller


def make_sketch_families(
    domains: Sequence[Domain], budget: int, seed: int, num_medians: int | None = None
) -> tuple[dict[int, SignFamily], int, int]:
    """One shared sign family per join attribute under a space budget.

    Returns ``(families_by_attribute, s1, s2)``; helper for the experiment
    harness, which builds chain queries where attribute ``i`` is shared by
    relations ``i`` and ``i+1``.
    """
    s1, s2 = split_budget(budget, num_medians)
    size = s1 * s2
    families = {
        i: SignFamily(dom.size, size, seed=seed * 7919 + i) for i, dom in enumerate(domains)
    }
    return families, s1, s2
