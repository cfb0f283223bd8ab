"""Stream relations: exact state, schemas, and synopsis observers.

A :class:`StreamRelation` models one stream of the paper's setting: a named
relation whose tuples arrive (and possibly depart) one at a time.  It keeps

* the exact joint frequency tensor — the ground truth the experiments
  measure relative error against (feasible because reproduction-scale
  domains are bounded; guarded by ``MAX_EXACT_CELLS``), and
* a list of attached *observers* — synopses that see every operation as it
  happens, exactly as the paper updates cosine coefficients and atomic
  sketches "whenever a tuple arrives" (section 5.1).

Every operation reaches the observers as a *batch*: one arriving tuple is a
batch of one, which the paper's batch update turns into exactly the
per-tuple result (Eqs. 3.4-3.5, section 3.2).  :meth:`StreamRelation.process`
and :meth:`StreamRelation.insert_rows` / :meth:`StreamRelation.delete_rows`
all update the exact tensor with one vectorized scatter-add and call each
observer's ``on_ops(relation, rows, kind)`` once.  Duck-typed observers
exposing only ``on_op`` are fed the batch tuple by tuple.

Synopses that are linear in the frequency vector (cosine sums, AGMS atoms,
histogram buckets, degree vectors) need only the batch's *delta*: its
distinct cells and their multiplicities.  :meth:`StreamRelation.batch_delta`
computes that :class:`BatchDelta` once per batch, the first time an
observer asks for it, and hands the same object to every later observer.
The delta's cells are the relation's own domain indices, so an observer
over unified domains maps them through an :func:`index_map` table instead
of mapping raw values again.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Any, Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain, as_rows, distinct_cells, index_map
from .tuples import OpKind, StreamOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs.tracing import Tracer
    from .stats import EngineStats

#: Refuse to materialize exact count tensors above this many cells.
MAX_EXACT_CELLS = 200_000_000

#: One axis' :func:`index_map` table into another domain; ``None`` when the
#: axis is already on that domain (see :meth:`StreamRelation.index_maps`).
IndexMap = Optional[NDArray[Any]]


class StreamObserver:
    """Base class for synopses that watch a relation's operations live.

    The relation calls :meth:`on_ops` once per same-kind batch, a single
    arriving tuple included.  Subclasses override :meth:`on_ops`, or
    implement :meth:`on_op` and inherit the default, which replays the
    batch tuple by tuple.  Attachment is duck-typed: any object with an
    ``on_ops`` or ``on_op`` method works.  An observer that cannot
    process deletions also has a ``check_delete()`` that raises, which a
    relation without a fault handler calls before a delete changes
    anything.
    """

    #: Stats attribution key (the owning query's method), set by the
    #: engine that attaches the observer; the class name when unset.
    stats_key: str

    def on_op(self, relation: "StreamRelation", op: StreamOp) -> None:
        """Called once per tuple by the default :meth:`on_ops`."""
        raise NotImplementedError

    def on_ops(self, relation: "StreamRelation", rows: NDArray[Any], kind: OpKind) -> None:
        """Called once per same-kind batch, after exact state is updated.

        ``rows`` is a ``(B, ndim)`` array of raw tuples (on a fleet shard,
        their int64 domain indices).  The default falls back to one
        :meth:`on_op` call per row.
        """
        for row in rows:
            self.on_op(relation, StreamOp(tuple(row), kind))


def _stats_key(observer: object) -> str:
    """Stats attribution key: the owning query's method, or the class name."""
    return getattr(observer, "stats_key", type(observer).__name__)


class BatchDelta:
    """One same-kind batch's change to a frequency tensor of shape ``shape``.

    ``cells`` are the batch's distinct cells as sorted flat indices into
    ``shape`` and ``counts`` how many rows hit each; the tensor changes by
    ``weight * counts`` at ``cells``.  Synopses over other (unified)
    domains read the cells through :meth:`indices`.
    """

    def __init__(
        self,
        cells: NDArray[Any],
        counts: NDArray[Any],
        shape: tuple[int, ...],
        kind: OpKind,
    ) -> None:
        self.cells = cells
        self.counts = counts
        self.shape = shape
        self.kind = kind
        self._marginals: dict[tuple[int, ...], BatchDelta] = {}
        self._axes = tuple(range(len(shape)))

    @classmethod
    def of(cls, indices: NDArray[Any], shape: tuple[int, ...], kind: OpKind) -> "BatchDelta":
        """The delta of a batch whose per-axis domain indices are ``indices``."""
        cells, _, counts = distinct_cells(indices, shape)
        return cls(cells, counts, shape, kind)

    @property
    def weight(self) -> int:
        """``+1`` for an insert batch, ``-1`` for a delete batch."""
        return self.kind.value

    def indices(self, maps: Sequence[IndexMap]) -> NDArray[Any]:
        """The ``(D, k)`` cells as indices of other domains, one map per axis."""
        if len(self.shape) == 1:
            table = maps[0]
            return (self.cells if table is None else table[self.cells])[:, None]
        axes = np.unravel_index(self.cells, self.shape)
        return np.stack([a if t is None else t[a] for t, a in zip(maps, axes)], axis=1)

    def marginal(self, axes: Sequence[int]) -> "BatchDelta":
        """The delta of the projection onto ``axes`` (cached per batch)."""
        key = tuple(axes)
        if key == self._axes:
            return self
        cached = self._marginals.get(key)
        if cached is None:
            full = np.unravel_index(self.cells, self.shape)
            shape = tuple(self.shape[a] for a in key)
            projected = np.stack([full[a] for a in key], axis=1)
            cells, _, counts = distinct_cells(projected, shape, self.counts)
            cached = self._marginals[key] = BatchDelta(cells, counts, shape, self.kind)
        return cached


class StreamRelation:
    """A named stream with a fixed schema of attribute domains."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Domain],
    ) -> None:
        if not attributes:
            raise ValueError("a relation needs at least one attribute")
        if len(attributes) != len(domains):
            raise ValueError("one domain per attribute is required")
        if len(set(attributes)) != len(attributes):
            raise ValueError("attribute names must be distinct")
        cells = int(np.prod([d.size for d in domains]))
        if cells > MAX_EXACT_CELLS:
            raise ValueError(
                f"exact tracking of {cells} cells exceeds MAX_EXACT_CELLS; "
                "use smaller domains for ground-truth experiments"
            )
        self.name = name
        self.attributes = tuple(attributes)
        self.domains = tuple(domains)
        self.counts = np.zeros(tuple(d.size for d in domains), dtype=np.int64)
        #: Whether raw int64 values are their own indices (0-based ranges).
        self._raw_indices = all(not d.is_categorical and d.low == 0 for d in domains)
        self._count = 0
        self._observers: list[StreamObserver] = []
        #: Optional counters shared with an owning engine (see
        #: :class:`repro.streams.stats.EngineStats`); ``None`` disables
        #: instrumentation entirely.
        self.stats: "EngineStats | None" = None
        #: Whether :attr:`stats` counts this relation's operations in the
        #: ``repro_ingest_*`` and ``repro_relation_ops_total`` series; its
        #: observer updates are recorded either way.
        self.record_ingest = True
        #: Optional span recorder (see :class:`repro.obs.tracing.Tracer`);
        #: ``None`` disables tracing of batch applies and observer updates.
        self.tracer: "Tracer | None" = None
        #: Optional observer fault handler: ``handler(relation, observer,
        #: exc) -> bool``, called when an observer raises.  Returning True
        #: means the fault was absorbed (the observer is typically
        #: quarantined by the handler) and notification continues with the
        #: remaining observers; returning False re-raises.  ``None`` (the
        #: default) preserves raise-through semantics exactly.
        self.fault_handler = None
        #: The batch being applied (raw rows, indices, kind) and, once an
        #: observer asked for it, its delta; both ``None`` between batches.
        self._batch: tuple[NDArray[Any], NDArray[Any], OpKind] | None = None
        self._delta: BatchDelta | None = None

    @property
    def ndim(self) -> int:
        return len(self.attributes)

    @property
    def count(self) -> int:
        """Live tuple count ``N``."""
        return self._count

    def attach(self, observer: StreamObserver) -> None:
        """Subscribe a synopsis observer to future operations."""
        self._observers.append(observer)

    def detach(self, observer: StreamObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------ #

    def index_maps(self, axes: Sequence[int], domains: Sequence[Domain]) -> list[IndexMap]:
        """Per axis, the :data:`IndexMap` from its domain into ``domains``."""
        return [
            None if self.domains[a] == d else index_map(self.domains[a], d)
            for a, d in zip(axes, domains)
        ]

    def rows_array(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> NDArray[Any]:
        """Coerce a batch of raw tuples into a ``(B, ndim)`` array.

        A 1-d input is accepted for single-attribute relations (a batch of
        scalars); multi-attribute relations require one row per tuple.
        Rows mixing strings with other values keep each value's own type
        (an object array; see :func:`as_rows`).
        """
        arr = as_rows(rows)
        if arr.size == 0 and arr.ndim <= 1:
            # An empty batch has no rows to carry shape information; make
            # it an explicit well-formed no-op instead of a shape error.
            return np.empty((0, self.ndim), dtype=np.int64)
        if arr.ndim == 1:
            if self.ndim == 1:
                arr = arr[:, None]
            else:
                raise ValueError(
                    f"{self.name} has {self.ndim} attributes; "
                    "pass rows as a (B, ndim) sequence of tuples"
                )
        if arr.ndim != 2 or arr.shape[1] != self.ndim:
            raise ValueError(
                f"rows must have shape (B, {self.ndim}), got {arr.shape}"
            )
        return arr

    def indices_of_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> NDArray[Any]:
        """Map a batch of raw tuples to a ``(B, ndim)`` index array.

        When every domain is a 0-based integer range and the rows already
        arrive as int64, the raw values *are* the indices: the batch is
        bounds-checked in place and returned without copying, keeping
        ``insert_rows`` zero-copy end-to-end (asserted by
        ``tests/fastpath/test_zero_copy.py``).
        """
        arr = self.rows_array(rows)
        if arr.dtype == np.int64 and self._raw_indices:
            for j, d in enumerate(self.domains):
                d.indices_of(arr[:, j])  # bounds check only; returns the view
            return arr
        columns = [d.indices_of(arr[:, j]) for j, d in enumerate(self.domains)]
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def process(self, op: StreamOp) -> None:
        """Apply one stream operation as a one-row batch, counted per tuple.

        A tracer records it only under 1-in-N sampling (``sample_every``;
        ``1`` traces every tuple): recording every tuple would cost the
        per-tuple overhead sampling exists to remove.  A sampled operation
        records the batch spans, ``ingest_batch`` with count 1 and its
        ``observer_update`` events.
        """
        if len(op.values) != self.ndim:
            raise ValueError(
                f"{self.name} has {self.ndim} attributes, tuple has {len(op.values)}"
            )
        self._apply_rows(self.rows_array([op.values]), op.kind, batched=False)

    def insert(self, values: Sequence[Any]) -> None:
        """Convenience: process an insertion of one raw tuple."""
        self.process(StreamOp(tuple(values), OpKind.INSERT))

    def delete(self, values: Sequence[Any]) -> None:
        """Convenience: process a deletion of one raw tuple."""
        self.process(StreamOp(tuple(values), OpKind.DELETE))

    def insert_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> None:
        """Process a batch of insertions with one scatter-add and one notify.

        The final state is identical to inserting each row individually;
        observers implementing ``on_ops`` see the whole batch at once.
        """
        self.apply_rows(rows, OpKind.INSERT)

    def delete_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> None:
        """Process a batch of deletions (validated before any state change)."""
        self.apply_rows(rows, OpKind.DELETE)

    def apply_rows(
        self, rows: Sequence[Sequence[Any]] | NDArray[Any], kind: OpKind
    ) -> NDArray[Any]:
        """Process a same-kind batch; return its ``(B, ndim)`` domain indices."""
        arr = self.rows_array(rows)
        if not arr.shape[0]:
            return np.empty((0, self.ndim), dtype=np.int64)
        return self._apply_rows(arr, kind)

    def apply_located(
        self,
        rows: Sequence[Sequence[Any]] | NDArray[Any],
        indices: NDArray[Any],
        kind: OpKind,
    ) -> None:
        """Process a same-kind batch of ``rows`` whose int64 domain ``indices`` are known.

        The indices are bounds-checked, never mapped again; a fleet shard
        passes its coordinator's indices as both.
        """
        arr, idx = self.rows_array(rows), self.rows_array(indices)
        if idx.dtype != np.int64 or idx.shape != arr.shape:
            raise ValueError(f"expected {arr.shape} int64 indices, got {idx.dtype} {idx.shape}")
        if not idx.shape[0]:
            return
        # Read as uint64, a negative index is above every axis size.
        if any(int(idx[:, j].view(np.uint64).max()) >= n for j, n in enumerate(self.counts.shape)):
            raise ValueError(f"domain indices outside {self.name}'s shape {self.counts.shape}")
        self._apply_indices(arr, idx, kind)

    def process_batch(self, ops: Iterable[StreamOp]) -> None:
        """Apply a sequence of operations, batching runs of the same kind.

        Consecutive same-kind operations are grouped into one vectorized
        application each, so a mixed insert/delete stream preserves its
        relative order while still amortizing observer updates.  A
        sequence with a delete that an observer cannot take is refused at
        that delete, before the insertions ahead of it apply.
        """
        run: list[tuple[Any, ...]] = []
        run_kind: OpKind | None = None
        for op in ops:
            if op.kind is OpKind.DELETE and run_kind is not OpKind.DELETE:
                self._check_deletes()
            if run_kind is not None and op.kind is not run_kind:
                self._apply_rows(self.rows_array(run), run_kind)
                run = []
            run_kind = op.kind
            run.append(op.values)
        if run:
            assert run_kind is not None
            self._apply_rows(self.rows_array(run), run_kind)

    def _apply_rows(self, arr: NDArray[Any], kind: OpKind, batched: bool = True) -> NDArray[Any]:
        """Map a batch of raw rows to domain indices and apply it; return the indices."""
        idx = self.indices_of_rows(arr)
        self._apply_indices(arr, idx, kind, batched)
        return idx

    def _apply_indices(
        self, arr: NDArray[Any], idx: NDArray[Any], kind: OpKind, batched: bool = True
    ) -> None:
        """Vectorized core: update exact counts at ``idx``, then notify once.

        With a :attr:`tracer` attached, the whole apply is wrapped in an
        ``ingest_batch`` span and each observer update is emitted as an
        ``observer_update`` event (reusing the duration the stats layer
        measured, so tracing adds no extra clock reads per observer).  A
        per-tuple apply (``batched=False``) is traced only under 1-in-N
        sampling.
        """
        tracer = self.tracer
        if tracer is not None and (batched or tracer.sample_every is not None):
            span: Any = tracer.span(
                "ingest_batch", count=arr.shape[0], relation=self.name, kind=kind.name.lower()
            )
        else:
            tracer, span = None, nullcontext()
        with span:
            delta: BatchDelta | None = None
            if kind is OpKind.DELETE:
                # A sequential replay would raise on the first tuple exceeding
                # its live multiplicity; check up front so a rejected batch
                # leaves the exact state untouched, as does one an observer
                # cannot take.
                delta = BatchDelta.of(idx, self.counts.shape, kind)
                flat = self.counts.reshape(-1)
                short = delta.counts > flat[delta.cells]
                if short.any():
                    cell = delta.cells[np.argmax(short)]
                    first = np.argmax(np.ravel_multi_index(idx.T, self.counts.shape) == cell)
                    bad = tuple(arr[first].tolist())
                    raise ValueError(f"deleting tuple {bad} that {self.name} does not hold")
                self._check_deletes()
                flat[delta.cells] -= delta.counts
                self._count -= idx.shape[0]
            else:
                # One flat index per row: np.add.at's tuple-index path is
                # several times slower on multi-attribute tensors.  The counts
                # tensor is C-contiguous (np.zeros, or load_counts' copy), so
                # the reshape is a view.
                flat = (
                    idx[:, 0]
                    if idx.shape[1] == 1
                    else np.ravel_multi_index(idx.T, self.counts.shape)
                )
                np.add.at(self.counts.reshape(-1), flat, 1)
                self._count += idx.shape[0]
            self._batch = (arr, idx, kind)
            self._delta = delta
            try:
                self._notify(arr, kind, tracer, batched)
            finally:
                self._batch = None
                self._delta = None

    def batch_delta(self, rows: NDArray[Any], kind: OpKind) -> BatchDelta:
        """The :class:`BatchDelta` of a same-kind batch of raw ``rows``.

        While a batch is being applied, its delta is computed on the first
        call and every later observer gets the same object; any other
        ``rows`` get a fresh delta.
        """
        batch = self._batch
        if batch is None or rows is not batch[0] or kind is not batch[2]:
            return BatchDelta.of(self.indices_of_rows(rows), self.counts.shape, kind)
        if self._delta is None:
            self._delta = BatchDelta.of(batch[1], self.counts.shape, kind)
        return self._delta

    def batch_indices(self, rows: NDArray[Any]) -> NDArray[Any]:
        """The ``(B, ndim)`` domain indices of a batch of raw ``rows``.

        While a batch is being applied, its rows' indices are the ones the
        apply computed; any other ``rows`` are mapped afresh.
        """
        batch = self._batch
        if batch is None or rows is not batch[0]:
            return self.indices_of_rows(rows)
        return batch[1]

    def _check_deletes(self) -> None:
        """Call every observer's ``check_delete``, if it has one.

        Without a fault handler only: with one, an observer that cannot
        delete raises from ``on_ops`` and is quarantined while the batch
        goes on.
        """
        if self.fault_handler is None:
            for observer in self._observers:
                check = getattr(observer, "check_delete", None)
                if check is not None:
                    check()

    def _notify(
        self, arr: NDArray[Any], kind: OpKind, tracer: "Tracer | None", batched: bool
    ) -> None:
        """Hand one applied batch to every attached observer."""
        stats = self.stats
        if stats is not None and self.record_ingest:
            stats.record_ops(arr.shape[0], kind, batched=batched, relation=self.name)
        # One sampling decision covers the whole batch: a sampled-out batch
        # with no stats attached skips every per-observer clock read.
        traced = tracer is not None and tracer.take()
        timed = stats is not None or traced
        fault_handler = self.fault_handler
        observers = self._observers if fault_handler is None else list(self._observers)
        for observer in observers:
            start = perf_counter() if timed else 0.0
            handler = getattr(observer, "on_ops", None)
            try:
                if handler is not None:
                    handler(self, arr, kind)
                else:  # duck-typed, on_op only
                    StreamObserver.on_ops(observer, self, arr, kind)
            except Exception as exc:
                if fault_handler is None or not fault_handler(self, observer, exc):
                    raise
            if timed:
                seconds = perf_counter() - start
                key = _stats_key(observer)
                if stats is not None:
                    stats.record_observer(key, seconds, arr.shape[0])
                if traced:
                    tracer.record(
                        "observer_update",
                        seconds,
                        count=arr.shape[0],
                        start=start,
                        relation=self.name,
                        method=key,
                    )

    # ------------------------------------------------------------------ #

    def load_counts(self, counts: NDArray[Any]) -> None:
        """Bulk-load an initial frequency tensor (no observer notification).

        Meant for experiment setup *before* observers are attached; attached
        synopses would silently miss the loaded tuples, so this raises if
        any observer is present.
        """
        if self._observers:
            raise ValueError("cannot bulk-load after observers are attached")
        counts = np.asarray(counts)
        if counts.shape != self.counts.shape:
            raise ValueError(f"counts shape {counts.shape} != {self.counts.shape}")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        self.counts = counts.astype(np.int64).copy()
        self._count = int(counts.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        schema = ", ".join(self.attributes)
        return f"StreamRelation({self.name}({schema}), N={self._count})"
