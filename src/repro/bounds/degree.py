"""Streaming degree-sequence statistics for one join attribute.

A *degree sequence* of relation ``R`` on attribute ``A`` is the
multiset of frequencies ``{ |σ_{A=v}(R)| : v ∈ dom(A) }``.  Join-size
upper bounds (UES max-degree products, AGM covers, and the Lp-norm
bounds of Abo Khamis & Olteanu) are all functions of a few norms of
these sequences — ``L∞`` (the max degree), ``L1`` (the relation
cardinality), ``L2``, and general ``Lp``.

:class:`DegreeSketch` keeps the *exact* frequency vector over the
attribute's unified domain as an ``int64`` array and computes norms on
read.  Exactness matters twice over:

* the derived bounds are guaranteed sound (no sketch error term to
  carry through the proofs), and
* the state is a linear function of the input multiset, so per-shard
  vectors sum to exactly the unsharded vector under
  :func:`repro.sharding.merge.merge_observer_states` — the merged
  bound is *identical* to the single-engine bound, not merely sound.

:class:`DegreeObserver` is the :class:`~repro.streams.relation.StreamObserver`
adapter feeding a sketch from a relation's insert/delete stream.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np
from numpy.typing import NDArray

from ..streams.relation import StreamObserver
from ..streams.tuples import OpKind, StreamOp

__all__ = ["DegreeObserver", "DegreeSketch"]

#: Relative margin that rounds a computed Lp norm up past its float error.
#: The power sum carries at most (log2(cells) + 2) ulps of error, and
#: ``total ** (1/p)`` adds about ln(total) ulps more through the rounded
#: exponent 1/p: under 800 ulps (2**-43) for any sum a float can hold,
#: so 2**-40 covers them with room to spare.
_ROUNDING_SLACK = 2.0**-40


class DegreeSketch:
    """Exact frequency (degree) vector over one attribute's unified domain.

    ``freq[i]`` is the current multiplicity of domain index ``i`` in the
    observed stream: inserts add 1, deletes subtract 1.  ``freq.sum()``
    is therefore the live relation cardinality.  All norms are computed
    on read from the current vector, so they are exact for the live
    multiset at any point of an insert/delete stream.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"domain size must be positive, got {size}")
        self.freq = np.zeros(size, dtype=np.int64)

    # -- updates -------------------------------------------------------

    def update(self, index: int, weight: int) -> None:
        """Apply one op: ``weight`` is ``+1`` (insert) or ``-1`` (delete)."""
        self.freq[index] += weight

    def update_batch(
        self, indices: NDArray[Any], weight: int, multiplicity: NDArray[Any] | None = None
    ) -> None:
        """Apply a batch of same-kind ops given their domain indices.

        ``multiplicity`` counts each index that many times (the distinct
        cells of a :class:`repro.streams.relation.BatchDelta`).
        """
        np.add.at(self.freq, indices, weight if multiplicity is None else weight * multiplicity)

    def load_counts(self, counts: NDArray[Any]) -> None:
        """Replace the vector with an externally computed frequency vector.

        Used at registration time to fold in rows ingested before the
        observer was attached (the engine marginalizes its exact count
        tensor onto this attribute's axis).
        """
        if counts.shape != self.freq.shape:
            raise ValueError(
                f"counts shape {counts.shape} != sketch shape {self.freq.shape}"
            )
        self.freq = np.asarray(counts, dtype=np.int64).copy()

    # -- norms ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Live relation cardinality (== L1 of the degree sequence)."""
        return int(self.freq.sum())

    @property
    def max_degree(self) -> int:
        """L∞ norm: the largest multiplicity of any single value."""
        if self.freq.size == 0:
            return 0
        return int(self.freq.max())

    @property
    def l1(self) -> int:
        return self.count

    @property
    def l2(self) -> float:
        """L2 norm of the degree sequence (sqrt of the self-join size)."""
        return self.lp(2)

    def lp(self, p: float) -> float:
        """General Lp norm, ``p >= 1``; ``p = inf`` gives the max degree.

        Never below the true norm, since join bounds multiply these: the
        float result is rounded up past its error.  An empty sketch has
        norm exactly 0.
        """
        if p < 1:
            raise ValueError(f"Lp norms require p >= 1, got {p}")
        if math.isinf(p):
            return float(self.max_degree)
        if p == 1:
            return float(self.l1)
        total = float(np.power(self.freq.astype(np.float64), p).sum())
        return float(total ** (1.0 / p)) * (1.0 + _ROUNDING_SLACK)

    # -- state ---------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {"freq": self.freq.copy()}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.load_counts(state["freq"])


class DegreeObserver(StreamObserver):
    """Feeds a :class:`DegreeSketch` from one relation's op stream.

    One observer per (relation, join-attribute) pair; ``axis`` is the
    attribute's position in the relation schema and ``domain`` the
    *unified* domain for that join slot, so sketches on both sides of a
    predicate index the same value space.
    """

    # Structural fields are rebuilt from the query spec at registration;
    # only the frequency vector (reached through ``sketch``) is
    # checkpoint state.
    _checkpoint_exempt = ("domain", "axis")

    # register_query attributes per-observer time to the query's method;
    # degree maintenance is bounds work regardless of method, so flag it
    # for separate attribution in the ingest stats.
    is_bound_observer = True

    def __init__(self, sketch: DegreeSketch, domain: Any, axis: int) -> None:
        self.sketch = sketch
        self.domain = domain
        self.axis = axis

    def on_op(self, relation: Any, op: StreamOp) -> None:
        index = self.domain.index_of(op.values[self.axis])
        self.sketch.update(index, op.weight)

    def on_ops(self, relation: Any, rows: NDArray[Any], kind: OpKind) -> None:
        delta = relation.batch_delta(rows, kind).marginal([self.axis])
        indices = self.domain.indices_of(delta.rows[:, 0])
        self.sketch.update_batch(indices, delta.weight, multiplicity=delta.counts)

    def state_dict(self) -> Dict[str, Any]:
        return self.sketch.state_dict()

    def load_state(self, state: Dict[str, Any]) -> None:
        self.sketch.load_state(state)
