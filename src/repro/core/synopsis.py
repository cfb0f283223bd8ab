"""The cosine-series stream synopsis (sections 3.2 and 4 of the paper).

A :class:`CosineSynopsis` summarizes the joint frequency distribution of a
(multi-attribute) data stream by the leading coefficients of its discrete
cosine transform:

    a_{k1..kd} = (1/N) * sum_i prod_j phi_{kj}(x_ij)        (paper Eq. 3.3)

Internally the synopsis stores the *unnormalized* sums
``S_k = sum_i prod_j phi_{kj}(x_ij)`` together with the live tuple count
``N``; the coefficients are ``S_k / N``.  Storing sums makes the paper's
incremental maintenance (Eq. 3.4 for insertion, Eq. 3.5 for deletion) a
plain ``+=``/``-=`` of the arriving tuple's basis products, and guarantees
bit-for-bit that incremental and batch construction agree — the property
section 3.2 emphasizes ("exactly the same as if we had derived in batch
fashion").

Truncation follows the paper: either the full ``m^d`` grid or the
triangular set ``k1 + ... + kd <= m - 1`` (the default, section 3.2).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from ..fastpath import phi_block, phi_expand
from .basis import GridKind
from .normalization import Domain, as_rows, distinct_cells
from .triangular import (
    full_indices,
    order_for_budget,
    scatter_to_dense,
    triangular_indices,
)

#: Batch rows per chunk of a multi-attribute update, which still builds one
#: (order x rows) table per attribute.  One-attribute updates and batch
#: builds use the kernel's projection form, which blocks on its own (or is
#: one DCT on the midpoint grid).
_CHUNK_ROWS = 2048


class CosineSynopsis:
    """Truncated d-dimensional cosine transform of a stream's distribution.

    Parameters
    ----------
    domains:
        One :class:`~repro.core.normalization.Domain` per attribute.  Join
        attributes must be described by the *unified* domain of the pair
        (section 4.1) for estimates to be comparable across streams.
    order:
        Transform order ``m`` — per-dimension coefficient indices run
        ``0..m-1``.  Mutually exclusive with ``budget``.
    budget:
        Total coefficient budget; the largest order whose retained set fits
        is chosen (this is the paper's "storage space = number of
        coefficients" accounting).
    truncation:
        ``"triangular"`` (default, section 3.2) or ``"full"``.
    grid:
        ``"midpoint"`` (default; exact Parseval) or ``"endpoint"``
        (the literal section 3.1 normalization).  See
        :mod:`repro.core.basis`.
    """

    # Structural parameters: a restored synopsis is always constructed with
    # the same spec first, so only the accumulators travel in checkpoints.
    _checkpoint_exempt = ("domains", "grid", "indices", "ndim", "order", "truncation")

    def __init__(
        self,
        domains: Sequence[Domain] | Domain,
        order: int | None = None,
        budget: int | None = None,
        truncation: str = "triangular",
        grid: GridKind = "midpoint",
    ) -> None:
        if isinstance(domains, Domain):
            domains = [domains]
        self.domains: tuple[Domain, ...] = tuple(domains)
        if not self.domains:
            raise ValueError("at least one attribute domain is required")
        self.ndim = len(self.domains)
        if (order is None) == (budget is None):
            raise ValueError("specify exactly one of order= or budget=")
        if truncation not in ("triangular", "full"):
            raise ValueError(f"unknown truncation: {truncation!r}")
        if order is None:
            assert budget is not None
            order = order_for_budget(budget, self.ndim, truncation)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        # On an n-point grid only orders 0..n-1 carry information (higher
        # orders alias); clamp the global order to the largest domain and
        # drop index tuples whose component exceeds its own dimension.
        order = min(order, max(d.size for d in self.domains))
        self.order = order
        self.truncation = truncation
        self.grid: GridKind = grid
        if truncation == "triangular":
            indices = triangular_indices(order, self.ndim)
        else:
            indices = full_indices(order, self.ndim)
        sizes = np.array([d.size for d in self.domains], dtype=np.int64)
        self.indices = indices[np.all(indices < sizes[None, :], axis=1)]
        self._sums = np.zeros(self.indices.shape[0], dtype=float)
        self._count = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """Live tuple count ``N`` (insertions minus deletions)."""
        return self._count

    @property
    def num_coefficients(self) -> int:
        """Number of stored coefficients — the paper's space unit."""
        return self.indices.shape[0]

    @property
    def coefficients(self) -> NDArray[Any]:
        """Current coefficient values ``a_k = S_k / N`` (paper Eq. 3.3)."""
        if self._count == 0:
            raise ValueError("synopsis is empty; coefficients are undefined")
        return self._sums / self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CosineSynopsis(ndim={self.ndim}, order={self.order}, "
            f"coefficients={self.num_coefficients}, count={self._count}, "
            f"truncation={self.truncation!r}, grid={self.grid!r})"
        )

    # ------------------------------------------------------------------ #
    # maintenance (paper Eqs. 3.4 / 3.5)
    # ------------------------------------------------------------------ #

    def _contributions(
        self, rows: NDArray[Any], multiplicity: NDArray[Any] | None
    ) -> NDArray[Any]:
        """Sum of per-tuple basis products for a batch of raw tuples.

        ``rows`` has shape ``(B, ndim)``; returns the length-``K`` vector
        ``sum_b w_b prod_j phi_{k_j}(x_{b,j})``, where ``w_b`` is row ``b``'s
        multiplicity (1 when none is given).  Without multiplicities,
        duplicate rows are aggregated first (one basis evaluation per
        distinct tuple), which is where batch updates beat per-tuple ones
        on realistic skewed streams.
        """
        cells: NDArray[Any] | None = None
        if multiplicity is None:
            indices = np.stack(
                [d.indices_of(rows[:, j]) for j, d in enumerate(self.domains)], axis=1
            )
            cells, first, multiplicity = distinct_cells(indices, [d.size for d in self.domains])
            rows = rows[first]
        weights = np.asarray(multiplicity, dtype=float)
        if self.ndim == 1:
            # 1-d fast path: the retained orders are exactly 0..m-1, so the
            # contribution is the kernel's projection of the weights.
            domain = self.domains[0]
            if self.grid == "midpoint":
                # one attribute: the distinct flat cells are the domain indices
                if cells is None:
                    cells = domain.indices_of(rows[:, 0])
                return phi_block(self.order, cells, weights=weights, midpoint=domain.size)
            positions = domain.positions_of(rows[:, 0], self.grid)
            return phi_block(self.order, positions, weights=weights)
        total = np.zeros(self.indices.shape[0], dtype=float)
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start : start + _CHUNK_ROWS]
            prod: NDArray[Any] | None = None
            for j, domain in enumerate(self.domains):
                positions = domain.positions_of(chunk[:, j], self.grid)
                table = phi_block(self.order, positions)
                factor = table[self.indices[:, j], :]
                prod = factor if prod is None else prod * factor
            assert prod is not None
            total += prod @ weights[start : start + _CHUNK_ROWS]
        return total

    def insert(self, values: Sequence[Any] | NDArray[Any] | object) -> None:
        """Process the arrival of one tuple (paper Eq. 3.4)."""
        self.insert_batch(self._as_rows(values))

    def delete(self, values: Sequence[Any] | NDArray[Any] | object) -> None:
        """Process the deletion of one tuple (paper Eq. 3.5)."""
        self.delete_batch(self._as_rows(values))

    def insert_batch(
        self, rows: NDArray[Any] | Sequence[Any], multiplicity: NDArray[Any] | None = None
    ) -> None:
        """Process a batch of arrivals at once (section 3.2, batch update).

        The result is identical to inserting each tuple individually; the
        batch form simply amortizes the basis evaluations.  ``multiplicity``
        counts each row that many times (the distinct rows of a
        :class:`repro.streams.relation.BatchDelta`).
        """
        rows = self._as_rows(rows)
        if rows.shape[0] == 0:
            return
        self._sums += self._contributions(rows, multiplicity)
        self._count += _row_count(rows, multiplicity)

    def delete_batch(
        self, rows: NDArray[Any] | Sequence[Any], multiplicity: NDArray[Any] | None = None
    ) -> None:
        """Process a batch of deletions at once (``multiplicity`` as in :meth:`insert_batch`)."""
        rows = self._as_rows(rows)
        if rows.shape[0] == 0:
            return
        count = _row_count(rows, multiplicity)
        if count > self._count:
            raise ValueError("cannot delete more tuples than the stream holds")
        self._sums -= self._contributions(rows, multiplicity)
        self._count -= count

    def _as_rows(self, values: Any) -> NDArray[Any]:
        """Coerce tuple / sequence-of-tuples input into a ``(B, ndim)`` array."""
        if self.ndim == 1 and np.isscalar(values):
            return as_rows([[values]])
        arr = as_rows(values)
        if arr.ndim == 1:
            if self.ndim == 1:
                # Ambiguity: a 1-d array over a 1-attribute synopsis is a batch
                # unless it has exactly one element per attribute by shape.
                arr = arr[:, None] if arr.shape[0] != 1 else arr[None, :]
            elif arr.shape[0] == self.ndim:
                arr = arr[None, :]
            else:
                raise ValueError(
                    f"tuple has {arr.shape[0]} attributes, synopsis expects {self.ndim}"
                )
        if arr.ndim != 2 or arr.shape[1] != self.ndim:
            raise ValueError(f"rows must have shape (B, {self.ndim}), got {arr.shape}")
        return arr

    # ------------------------------------------------------------------ #
    # batch construction (paper Eq. 3.3)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_counts(
        cls,
        domains: Sequence[Domain] | Domain,
        counts: NDArray[Any],
        order: int | None = None,
        budget: int | None = None,
        truncation: str = "triangular",
        grid: GridKind = "midpoint",
    ) -> "CosineSynopsis":
        """Build a synopsis directly from a joint frequency tensor.

        ``counts`` has one axis per attribute, ``counts[j1,..,jd]`` being the
        number of tuples at those domain indices.  Coefficients are computed
        in closed form (Eq. 3.3); the result is identical to streaming every
        tuple through :meth:`insert`.
        """
        syn = cls(domains, order=order, budget=budget, truncation=truncation, grid=grid)
        counts = np.asarray(counts, dtype=float)
        expected = tuple(d.size for d in syn.domains)
        if counts.shape != expected:
            raise ValueError(f"counts shape {counts.shape} does not match domains {expected}")
        total = counts.sum()
        if total < 0:
            raise ValueError("counts must be non-negative in aggregate")
        if not counts.any():
            return syn  # contracting zeros needs no basis table
        if syn.ndim == 1 and grid == "midpoint":
            # the nonzero counts are one batch's weights: per-cell or one DCT
            cells = np.flatnonzero(counts)
            syn._sums = phi_block(syn.order, cells, weights=counts[cells], midpoint=counts.size)
        else:
            # Project each value axis onto the basis (the kernel's projection
            # form, never the order x n_j table); after d steps the tensor
            # holds the unnormalized coefficient grid.
            tensor = counts
            for j, domain in enumerate(syn.domains):
                moved = np.moveaxis(tensor, j, 0)
                weights = moved.reshape(moved.shape[0], -1)
                projected = phi_block(syn.order, domain.grid(grid), weights=weights)
                tensor = np.moveaxis(projected.reshape((syn.order,) + moved.shape[1:]), 0, j)
            syn._sums = tensor[tuple(syn.indices[:, j] for j in range(syn.ndim))].copy()
        syn._count = int(round(total))
        return syn

    # ------------------------------------------------------------------ #
    # combination and export
    # ------------------------------------------------------------------ #

    def merge(self, other: "CosineSynopsis") -> "CosineSynopsis":
        """Synopsis of the concatenation of two streams.

        Both synopses must agree on domains, order, truncation and grid.
        Because the stored sums are additive over tuples, merging is exact.
        """
        self._require_compatible(other)
        merged = CosineSynopsis(
            self.domains, order=self.order, truncation=self.truncation, grid=self.grid
        )
        merged._sums = self._sums + other._sums
        merged._count = self._count + other._count
        return merged

    def __add__(self, other: "CosineSynopsis") -> "CosineSynopsis":
        return self.merge(other)

    def _require_compatible(self, other: "CosineSynopsis") -> None:
        if not isinstance(other, CosineSynopsis):
            raise TypeError(f"expected CosineSynopsis, got {type(other).__name__}")
        if (
            self.domains != other.domains
            or self.order != other.order
            or self.truncation != other.truncation
            or self.grid != other.grid
        ):
            raise ValueError("synopses have incompatible domains or parameters")

    def truncated(self, order: int | None = None, budget: int | None = None) -> "CosineSynopsis":
        """A copy of this synopsis truncated to a smaller order or budget.

        Truncation only ever discards trailing (high-order) coefficients,
        so a synopsis maintained at a generous order can serve any smaller
        space budget exactly as if it had been built there — the experiment
        harness uses this to sweep budgets from one build.
        """
        if (order is None) == (budget is None):
            raise ValueError("specify exactly one of order= or budget=")
        if order is None:
            assert budget is not None
            order = order_for_budget(budget, self.ndim, self.truncation)
        if order > self.order:
            raise ValueError(f"cannot grow a synopsis (order {order} > {self.order})")
        smaller = CosineSynopsis(
            self.domains, order=order, truncation=self.truncation, grid=self.grid
        )
        position = {tuple(idx): i for i, idx in enumerate(self.indices)}
        take = np.array([position[tuple(idx)] for idx in smaller.indices], dtype=np.int64)
        smaller._sums = self._sums[take].copy()
        smaller._count = self._count
        return smaller

    def dense_tensor(self, order: int | None = None) -> NDArray[Any]:
        """Coefficients scattered into a dense ``(order,)*ndim`` tensor.

        Truncated-away entries are zero.  ``order`` may shrink the tensor
        (dropping high-order coefficients) but not grow it beyond
        ``self.order``.  Used by the multi-join contraction estimator.
        """
        if order is None:
            order = self.order
        if order > self.order:
            raise ValueError(f"cannot expand to order {order} > stored order {self.order}")
        keep = np.all(self.indices < order, axis=1)
        return scatter_to_dense(self.indices[keep], self.coefficients[keep], order)

    def reconstruct_counts(self) -> NDArray[Any]:
        """Approximate joint frequency tensor implied by the synopsis.

        Inverts the truncated transform on the grid; with a full coefficient
        set on the midpoint grid the reconstruction is exact.  Band,
        inequality and CDF estimates read it; on one midpoint-grid attribute
        it is one inverse DCT.
        """
        if self.ndim == 1 and self.grid == "midpoint":
            n = self.domains[0].size
            return phi_expand(self.coefficients, n) / n * self._count
        tensor = scatter_to_dense(self.indices, self.coefficients, self.order)
        for j, domain in enumerate(self.domains):
            table = phi_block(self.order, domain.grid(self.grid))
            tensor = np.tensordot(tensor, table, axes=([j], [0]))
            tensor = np.moveaxis(tensor, -1, j)
            tensor = tensor / domain.size
        return tensor * self._count

    def state_dict(self) -> dict[str, Any]:
        """Mutable state only (sums + count), for engine checkpoints.

        Unlike :meth:`to_dict` this omits the structural parameters —
        the checkpoint stores the query spec separately and rebuilds the
        synopsis from it, then restores the numeric state in place with
        :meth:`load_state` so estimate closures keep their object.
        """
        return {"sums": self._sums.copy(), "count": self._count}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place."""
        sums = np.asarray(state["sums"], dtype=float)
        if sums.shape != self._sums.shape:
            raise ValueError(
                f"checkpointed synopsis has {sums.shape[0]} coefficients, "
                f"this synopsis stores {self._sums.shape[0]}"
            )
        self._sums = sums.copy()
        self._count = int(state["count"])

    def to_dict(self) -> dict[str, Any]:
        """Serialize to plain Python types (JSON-compatible)."""
        return {
            "ndim": self.ndim,
            "order": self.order,
            "truncation": self.truncation,
            "grid": self.grid,
            "count": self._count,
            "sums": self._sums.tolist(),
            "domains": [
                {"size": d.size, "low": d.low}
                if not d.is_categorical
                else {"categories": list(d._categories or ())}
                for d in self.domains
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CosineSynopsis":
        """Inverse of :meth:`to_dict`."""
        domains = []
        for spec in payload["domains"]:
            if "categories" in spec:
                domains.append(Domain.categorical(spec["categories"]))
            else:
                domains.append(Domain.integer_range(spec["low"], spec["low"] + spec["size"] - 1))
        syn = cls(
            domains,
            order=payload["order"],
            truncation=payload["truncation"],
            grid=payload["grid"],
        )
        sums = np.asarray(payload["sums"], dtype=float)
        if sums.shape != syn._sums.shape:
            raise ValueError("serialized coefficient count does not match parameters")
        syn._sums = sums
        syn._count = int(payload["count"])
        return syn


def _row_count(rows: NDArray[Any], multiplicity: NDArray[Any] | None) -> int:
    """Tuples a batch stands for: its rows, or the sum of their multiplicities."""
    return rows.shape[0] if multiplicity is None else int(np.asarray(multiplicity).sum())


def synopses_for_budget(
    domains_per_relation: Iterable[Sequence[Domain] | Domain],
    budget: int,
    truncation: str = "triangular",
    grid: GridKind = "midpoint",
) -> list[CosineSynopsis]:
    """Create one synopsis per relation, each under the same space budget.

    Convenience mirroring the paper's experimental setup, where every method
    gets the same per-relation number of coefficients / atomic sketches.
    """
    return [
        CosineSynopsis(domains, budget=budget, truncation=truncation, grid=grid)
        for domains in domains_per_relation
    ]
