"""Join size estimation from cosine synopses (section 4 of the paper).

Single equi-join (Eq. 4.4): for streams R1, R2 summarized over the same
unified join-attribute domain of size ``n``,

    Est = (N1 * N2 / n) * sum_{k=0}^{m-1} a_k * b_k.

Multi-join queries generalize this to a contraction of the relations'
coefficient tensors along the joined dimensions ("adding up the products of
the corresponding coefficients on the same dimensions", section 4.2).  For
the paper's three-join chain R1.A=R2.A, R2.B=R3.B, R3.C=R4.C:

    Est = (N1 N2 N3 N4 / (nA nB nC)) * sum_{k,l,m} a1_k a2_{k,l} a3_{l,m} a4_m

which this module evaluates with a generated ``einsum``.  The contraction is
valid for *any* join graph in which each attribute slot of each relation
participates in exactly one equi-join predicate (joined pairs must share a
unified domain); attributes not joined at all are marginalized away, which
in coefficient space is simply slicing their index at 0 (the order-0
coefficient of a dimension is its marginal).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ..fastpath import phi_block, phi_expand
from .synopsis import CosineSynopsis

#: An attribute slot: (relation position in the synopsis list, axis index).
Slot = tuple[int, int]


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate between two attribute slots."""

    left: Slot
    right: Slot

    def slots(self) -> tuple[Slot, Slot]:
        return (self.left, self.right)


def estimate_self_join_size(synopsis: CosineSynopsis) -> float:
    """Estimate ``|R join R|`` (the second frequency moment) of a stream.

    By Parseval, ``F2 = (N^2 / n) * sum_k a_k^2``; truncation to the stored
    coefficients gives the estimate.
    """
    if synopsis.ndim != 1:
        raise ValueError("self-join estimation expects a single-attribute synopsis")
    coeffs = synopsis.coefficients
    n = synopsis.domains[0].size
    return float(synopsis.count) ** 2 / n * float(np.dot(coeffs, coeffs))


def estimate_join_size(a: CosineSynopsis, b: CosineSynopsis) -> float:
    """Estimate the size of a single equi-join ``R1.A = R2.B`` (Eq. 4.4).

    Both synopses must be one-dimensional over the *same* unified domain and
    grid.  If their orders differ, the common prefix of coefficients is used
    (truncation only ever drops trailing terms).
    """
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(
            "estimate_join_size expects single-attribute synopses; "
            "use estimate_multijoin_size for multi-attribute relations"
        )
    _require_joinable(a, b, axis_a=0, axis_b=0)
    m = min(a.order, b.order)
    n = a.domains[0].size
    dot = float(np.dot(a.coefficients[:m], b.coefficients[:m]))
    return a.count * b.count / n * dot


def estimate_multijoin_size(
    synopses: Sequence[CosineSynopsis],
    predicates: Sequence[JoinPredicate | tuple[Slot, Slot]],
) -> float:
    """Estimate a multi-equi-join COUNT query by tensor contraction.

    Parameters
    ----------
    synopses:
        One cosine synopsis per relation in the FROM clause.
    predicates:
        Equi-join predicates as :class:`JoinPredicate` or plain
        ``((rel, axis), (rel, axis))`` pairs.  Each attribute slot may appear
        in at most one predicate; slots in no predicate are marginalized.
    """
    preds = [p if isinstance(p, JoinPredicate) else JoinPredicate(*p) for p in predicates]
    if not synopses:
        raise ValueError("at least one synopsis is required")
    if not preds:
        raise ValueError("at least one join predicate is required")

    seen: set[Slot] = set()
    for pred in preds:
        for rel, axis in pred.slots():
            if not 0 <= rel < len(synopses):
                raise ValueError(f"predicate references relation {rel} of {len(synopses)}")
            if not 0 <= axis < synopses[rel].ndim:
                raise ValueError(f"predicate references axis {axis} of relation {rel}")
            if (rel, axis) in seen:
                raise ValueError(f"attribute slot {(rel, axis)} used by two predicates")
            seen.add((rel, axis))
        a = synopses[pred.left[0]]
        b = synopses[pred.right[0]]
        _require_joinable(a, b, axis_a=pred.left[1], axis_b=pred.right[1])

    # Common contraction order: truncate every tensor to the smallest order
    # among the synopses (triangular truncation keeps exactly the low orders,
    # so this only drops terms neither side could pair up anyway).
    order = min(s.order for s in synopses)

    # Assign one einsum symbol per predicate.
    symbols = iter(string.ascii_lowercase)
    slot_symbol: dict[Slot, str] = {}
    scale = 1.0
    for pred in preds:
        sym = next(symbols)
        slot_symbol[pred.left] = sym
        slot_symbol[pred.right] = sym
        n = synopses[pred.left[0]].domains[pred.left[1]].size
        scale /= n

    operands: list[NDArray[Any]] = []
    subscripts: list[str] = []
    for rel, syn in enumerate(synopses):
        tensor = syn.dense_tensor(order)
        script = ""
        # Marginalize unjoined axes by slicing index 0 (order-0 coefficient
        # of a dimension is the marginal over it); collect symbols otherwise.
        slicer: list[object] = []
        for axis in range(syn.ndim):
            slot = (rel, axis)
            if slot in slot_symbol:
                slicer.append(slice(None))
                script += slot_symbol[slot]
            else:
                slicer.append(0)
        operands.append(tensor[tuple(slicer)])
        subscripts.append(script)
        scale *= syn.count

    expression = ",".join(subscripts) + "->"
    return scale * float(np.einsum(expression, *operands))


def choose_budget(
    a: CosineSynopsis, b: CosineSynopsis, tolerance: float = 0.01
) -> int:
    """Smallest coefficient budget whose estimate has converged.

    A practical budget advisor: given synopses maintained at a generous
    order ``M``, find the smallest ``m <= M`` whose estimate is within
    ``tolerance`` (relative) of the full-``M`` estimate — the self-
    consistent truncation point.  On smooth data this is tiny (the
    energy-compaction property); on adversarial data it approaches ``M``
    (the section 4.3.2 worst case); either way it costs one pass over the
    coefficient products, not a re-scan of the stream.

    Note this certifies convergence *to the order-M estimate*, not to the
    unknown true join size — pair it with
    :func:`estimate_join_size_with_bound` when a hard guarantee is needed.
    """
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("choose_budget expects single-attribute synopses")
    _require_joinable(a, b, axis_a=0, axis_b=0)
    if not 0 < tolerance:
        raise ValueError("tolerance must be positive")
    m = min(a.order, b.order)
    n = a.domains[0].size
    scale = a.count * b.count / n
    products = a.coefficients[:m] * b.coefficients[:m]
    partials = scale * np.cumsum(products)
    full = partials[-1]
    denominator = max(abs(full), 1e-12)
    within = np.abs(partials - full) / denominator <= tolerance
    # smallest prefix length from which the estimate STAYS within tolerance
    stays = np.logical_and.accumulate(within[::-1])[::-1]
    first = int(np.argmax(stays)) if stays.any() else m - 1
    return first + 1


def estimate_join_size_with_bound(
    a: CosineSynopsis, b: CosineSynopsis
) -> tuple[float, float]:
    """Single-join estimate plus its deterministic Eq. 4.7 error bound.

    Returns ``(estimate, bound)`` with ``|J - estimate| <= bound``
    guaranteed for *any* pair of distributions — the worst-case guarantee
    of section 4.3 attached to the point estimate.  The bound is usually
    very loose (that is the paper's point); it is exact about being an
    upper bound, which is what makes it useful as a certificate.
    """
    from .error import absolute_error_bound

    estimate = estimate_join_size(a, b)
    m = min(a.order, b.order)
    n = a.domains[0].size
    bound = absolute_error_bound(a.count, b.count, n, m)
    return estimate, bound


def estimate_join_size_by_group(
    grouped: CosineSynopsis,
    other: CosineSynopsis,
    group_axis: int = 0,
) -> NDArray[Any]:
    """Per-group equi-join sizes: ``GROUP BY`` one attribute of a 2-d stream.

    For a two-attribute synopsis of R1(G, A) joined with a one-attribute
    synopsis of R2(A), returns the length-``n_G`` vector of estimates of

        J(g) = |{(s, t) : s.G = g, s.A = t.A}| = N1 N2 * sum_a f1(g, a) f2(a)

    — the answer to ``SELECT G, COUNT(*) ... GROUP BY G``.  In coefficient
    space this reconstructs along the group axis only:

        J(g) = (N1 N2 / (n_G n_A)) * sum_{k,l} a1_{k,l} φ_k(x_g) b_l.

    Summing the vector gives the plain join estimate (tested).
    """
    if grouped.ndim != 2:
        raise ValueError("group-by estimation expects a two-attribute synopsis")
    if other.ndim != 1:
        raise ValueError("the probe side must be a single-attribute synopsis")
    if group_axis not in (0, 1):
        raise ValueError("group_axis must be 0 or 1")
    join_axis = 1 - group_axis
    _require_joinable(grouped, other, axis_a=join_axis, axis_b=0)

    # Only the JOIN axis is truncated to the probe's order; the group axis
    # keeps the grouped synopsis' full stored resolution.
    join_order = min(grouped.order, other.order)
    tensor = grouped.dense_tensor(grouped.order)
    if group_axis == 1:
        tensor = tensor.T
    tensor = tensor[:, :join_order]
    contracted = tensor @ other.coefficients[:join_order]  # over group orders
    group_domain = grouped.domains[group_axis]
    n_group = group_domain.size
    n_join = grouped.domains[join_axis].size
    scale = grouped.count * other.count / (n_group * n_join)
    if grouped.grid == "midpoint":
        # orders past the group axis's size hold no coefficients
        return scale * phi_expand(contracted[:n_group], n_group)
    return scale * (contracted @ phi_block(grouped.order, group_domain.grid(grouped.grid)))


def estimate_chain_join_size(synopses: Sequence[CosineSynopsis]) -> float:
    """Estimate the paper's chain query ``R1.A1=R2.A1 and R2.A2=R3.A2 and ...``.

    Convenience wrapper for the experiment workloads: relation ``i`` joins
    its *last* attribute with relation ``i+1``'s *first* attribute, exactly
    the section 5.1 query shape (end relations have one attribute, inner
    relations two).
    """
    if len(synopses) < 2:
        raise ValueError("a chain join needs at least two relations")
    predicates = []
    for i in range(len(synopses) - 1):
        left_axis = synopses[i].ndim - 1
        predicates.append(JoinPredicate((i, left_axis), (i + 1, 0)))
    return estimate_multijoin_size(synopses, predicates)


def _require_joinable(
    a: CosineSynopsis, b: CosineSynopsis, axis_a: int, axis_b: int
) -> None:
    """Check that two synopsis axes describe the same unified domain."""
    if a.grid != b.grid:
        raise ValueError(f"synopses use different grids: {a.grid!r} vs {b.grid!r}")
    da, db = a.domains[axis_a], b.domains[axis_b]
    if da.size != db.size:
        raise ValueError(
            "join attributes must be normalized over the same unified domain "
            f"(sizes {da.size} vs {db.size}); see repro.core.normalization.unify_domains"
        )
