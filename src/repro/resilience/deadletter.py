"""Ingest validation and the bounded dead-letter buffer.

The engine's batched ingest applies one vectorized scatter-add per
batch, so a single malformed row (wrong arity, NaN/inf, a value outside
the declared domain) refuses the whole batch, and the producer cannot
tell which row was poisoned.  With dead-lettering enabled the engine
validates rows up front, ingests the clean remainder, and parks every
rejected row in a bounded ring (:class:`DeadLetterBuffer`) with its
rejection reason, so poisoned inputs are quarantined and *observable*
instead of fatal.

The buffer is a fixed-capacity ring: when full, the oldest entry is
evicted and counted in :attr:`DeadLetterBuffer.dropped` — unbounded
queues are how poison streams take whole processes down.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterator, Protocol, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import as_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..streams.relation import StreamRelation
    from ..streams.tuples import OpKind

__all__ = ["DeadLetter", "DeadLetterBuffer", "ReplayReport", "validate_rows"]

#: Rejection reasons, stable strings used as metric label values.
REASON_ARITY = "arity"
REASON_NON_FINITE = "non_finite"
REASON_OUT_OF_DOMAIN = "out_of_domain"


@dataclass(frozen=True)
class DeadLetter:
    """One rejected row: where it was headed, what it was, and why."""

    relation: str
    row: tuple[Any, ...]
    kind: str
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "row": list(self.row),
            "kind": self.kind,
            "reason": self.reason,
        }


class _ReplayTarget(Protocol):  # pragma: no cover - typing only
    """What :meth:`DeadLetterBuffer.replay` needs from an engine.

    Both :class:`~repro.streams.engine.StreamEngine` and
    :class:`~repro.sharding.engine.ShardedStreamEngine` satisfy it: a
    batch-ingest entry point plus an active ``dead_letters`` buffer so
    rows that are *still* invalid are re-parked instead of raising.
    """

    dead_letters: "DeadLetterBuffer | None"

    def ingest_batch(self, relation_name: str, rows: Any, kind: Any) -> None: ...


@dataclass
class ReplayReport:
    """Outcome of one :meth:`DeadLetterBuffer.replay` pass."""

    attempted: int = 0
    ingested: int = 0
    still_dead: int = 0
    by_relation: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "attempted": self.attempted,
            "ingested": self.ingested,
            "still_dead": self.still_dead,
            "by_relation": dict(self.by_relation),
        }


class DeadLetterBuffer:
    """A bounded ring of rejected rows with eviction accounting.

    ``total`` counts every rejection ever recorded; ``dropped`` counts
    the entries evicted because the ring was full.  ``len(buffer)`` is
    the number currently held (at most ``capacity``).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[DeadLetter] = deque()
        self.total = 0
        self.dropped = 0

    def add(self, letter: DeadLetter) -> None:
        """Record one rejected row, evicting the oldest entry if full."""
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(letter)
        self.total += 1

    def divert(
        self,
        relation: "StreamRelation",
        rows: Sequence[Any] | NDArray[Any],
        kind: "OpKind",
        registry: "MetricsRegistry",
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Validate a batch bound for ``relation``; keep its bad rows here.

        Returns the clean rows in input order (see :func:`validate_rows`)
        and their ``(B, ndim)`` domain indices.  Each rejected row becomes
        a :class:`DeadLetter` and counts once in ``registry``'s
        ``repro_ingest_dead_letters_total``, per relation and reason.
        """
        clean, indices, rejects = _validate(relation, rows)
        if rejects:
            counter = registry.counter(
                "repro_ingest_dead_letters_total",
                "Rows rejected into the dead-letter buffer.",
                labelnames=("relation", "reason"),
            )
            op_kind = kind.name.lower()
            for row, reason in rejects:
                self.add(DeadLetter(relation.name, row, op_kind, reason))
                counter.labels(relation.name, reason).inc()
        return clean, indices

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._ring)

    def tail(self, n: int = 10) -> list[DeadLetter]:
        """The most recent ``n`` entries, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        """Drop all held entries (counters are preserved)."""
        self._ring.clear()

    def replay(self, engine: "_ReplayTarget") -> ReplayReport:
        """Drain the buffer back through ``engine``'s validated ingest.

        Every held row is re-submitted to ``engine.ingest_batch`` in
        original rejection order, grouped into maximal consecutive runs
        with the same ``(relation, kind)`` so relative ordering — which
        sample/sketch state depends on — is preserved.  The engine
        re-validates: rows that are now clean (the operator widened a
        domain, replay targets a corrected engine, an upstream producer
        bug was fixed) are ingested; rows that are still malformed land
        back in the engine's dead-letter buffer (counted again in
        ``total``, like any rejection).  Returns a
        :class:`ReplayReport`; on partial success the still-bad rows
        remain buffered for the next attempt.

        ``engine`` must have dead-lettering enabled — replaying known-bad
        rows through an unguarded ingest path would abort mid-batch.
        """
        buffer = engine.dead_letters
        if buffer is None:
            raise ValueError(
                "replay target must have dead-lettering enabled "
                "(call enable_dead_lettering() first)"
            )
        from ..streams.tuples import OpKind

        letters = list(self._ring)
        self._ring.clear()
        report = ReplayReport(attempted=len(letters))
        if not letters:
            return report
        redeposited_before = buffer.total
        start = 0
        for i in range(1, len(letters) + 1):
            boundary = i == len(letters) or (
                (letters[i].relation, letters[i].kind)
                != (letters[start].relation, letters[start].kind)
            )
            if not boundary:
                continue
            run = letters[start:i]
            start = i
            kind = OpKind.DELETE if run[0].kind == "delete" else OpKind.INSERT
            engine.ingest_batch(run[0].relation, [letter.row for letter in run], kind)
        report.still_dead = buffer.total - redeposited_before
        report.ingested = report.attempted - report.still_dead
        attempts: dict[str, int] = {}
        for letter in letters:
            attempts[letter.relation] = attempts.get(letter.relation, 0) + 1
        returned: dict[str, int] = {}
        if report.still_dead:
            for letter in list(buffer)[-report.still_dead :]:
                returned[letter.relation] = returned.get(letter.relation, 0) + 1
        report.by_relation = {
            name: attempts[name] - returned.get(name, 0) for name in attempts
        }
        return report

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible snapshot (held entries plus accounting)."""
        return {
            "capacity": self.capacity,
            "held": len(self._ring),
            "total": self.total,
            "dropped": self.dropped,
            "tail": [letter.as_dict() for letter in self.tail(10)],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeadLetterBuffer(held={len(self._ring)}/{self.capacity}, "
            f"total={self.total}, dropped={self.dropped})"
        )


def _row_tuple(row: Any) -> tuple[Any, ...]:
    if np.isscalar(row):
        return (row,)
    return tuple(np.asarray(row).tolist()) if isinstance(row, np.ndarray) else tuple(row)


def _finite_mask(arr: NDArray[Any]) -> NDArray[Any]:
    """Per-row all-finite mask; only float values can be non-finite.

    An object array is checked column by column, and only in the columns
    that hold a float.
    """
    if np.issubdtype(arr.dtype, np.floating):
        return np.asarray(np.isfinite(arr).all(axis=1), dtype=bool)
    keep = np.ones(arr.shape[0], dtype=bool)
    if arr.dtype == object:
        for column in arr.T:
            if any(map(isinstance, column, repeat(float))):
                keep &= [not (isinstance(v, float) and not math.isfinite(v)) for v in column]
    return keep


def _clean_rows(
    relation: "StreamRelation",
    arr: NDArray[Any],
    rejects: list[tuple[tuple[Any, ...], str]],
) -> tuple[NDArray[Any], NDArray[Any]]:
    """The finite, in-domain rows of a ``(B, ndim)`` array and their indices.

    The other rows go to ``rejects``: the non-finite ones first, then the
    out-of-domain ones, each group in input order.
    """
    keep = _finite_mask(arr)
    for row in arr[~keep]:
        rejects.append((_row_tuple(row), REASON_NON_FINITE))
    candidate = arr[keep]
    located = [domain.locate(candidate[:, j]) for j, domain in enumerate(relation.domains)]
    members = np.logical_and.reduce([found for _, found in located])
    for row in candidate[~members]:
        rejects.append((_row_tuple(row), REASON_OUT_OF_DOMAIN))
    indices = np.stack([index for index, _ in located], axis=1)
    return candidate[members], indices[members]


def _validate(
    relation: "StreamRelation", rows: Sequence[Any] | NDArray[Any]
) -> tuple[NDArray[Any], NDArray[Any], list[tuple[tuple[Any, ...], str]]]:
    """:func:`validate_rows`, plus the clean rows' ``(B, ndim)`` domain indices."""
    ndim = relation.ndim
    arr: NDArray[Any] | None
    try:
        arr = as_rows(rows)
    except ValueError:  # ragged nested sequences refuse to coerce at all
        arr = None
    rejects: list[tuple[tuple[Any, ...], str]] = []
    if arr is not None and arr.ndim == 1 and ndim == 1 and arr.dtype != object:
        arr = arr[:, None]
    if arr is not None and arr.ndim == 2 and arr.shape[1] == ndim:
        return (*_clean_rows(relation, arr, rejects), rejects)

    # Ragged input (or a 1-d object array, whose items may be rows):
    # check each row's arity, then the rest on the rows that fit.
    source = rows if arr is None or arr.ndim == 0 else arr
    good: list[tuple[Any, ...]] = []
    for row in map(_row_tuple, source):
        if len(row) != ndim:
            rejects.append((row, REASON_ARITY))
        else:
            good.append(row)
    if not good:
        empty = np.empty((0, ndim), dtype=np.int64)
        return empty, empty, rejects
    good_arr = as_rows(good)
    if good_arr.dtype == object or good_arr.ndim != 2:
        good_arr = np.empty((len(good), ndim), dtype=object)
        for i, row in enumerate(good):
            for j, value in enumerate(row):
                good_arr[i, j] = value
    return (*_clean_rows(relation, good_arr, rejects), rejects)


def validate_rows(
    relation: "StreamRelation", rows: Sequence[Any] | NDArray[Any]
) -> tuple[NDArray[Any], list[tuple[tuple[Any, ...], str]]]:
    """Split a raw batch into (clean rows, rejected rows with reasons).

    Checks, in order: arity (one value per attribute), finiteness
    (NaN/inf are rejected before they can reach the exact tensor's
    integer scatter-add), and domain membership per attribute.  The
    clean array preserves input order and is safe to hand to
    :meth:`StreamRelation.insert_rows` / ``delete_rows`` unchanged.  A
    batch that coerces to a ``(B, ndim)`` array, mixed rows such as
    ``("austin", 30)`` included, is checked column by column; only a
    ragged batch is normalized row by row.
    """
    clean, _, rejects = _validate(relation, rows)
    return clean, rejects
