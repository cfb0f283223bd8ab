"""The continuous query engine: registered queries answered on demand.

This is the paper's processing model (section 1): continuous COUNT queries
with equi-joins are "issued once and then run continuously" over unbounded
streams, with estimates available at any moment from small synopses that
are updated as every tuple arrives.

The engine owns :class:`~repro.streams.relation.StreamRelation` objects and,
per registered query, holds one synopsis per participating relation over
the query's *unified* join domains (section 4.1), attached as stream
observers, and exposes ``answer()`` / ``answers()``.  Queries registered
after data has flowed are *replayed* from the relations' exact counts, so a
late query starts consistent with history.

The linear synopses (cosine, AGMS, histogram and the degree sketches of
``bounds=True``) are kept in a refcounted table keyed on everything their
state depends on: relation, axes, unified domains, kind, budget and
options, sign-family seeds.  Queries whose specs give the same key hold the
same observer, so four identical cosine queries cost one synopsis update
per batch, and each observer reads the batch's shared
:class:`~repro.streams.relation.BatchDelta`.

Supported estimation methods mirror the paper's experimental cast:

- ``"cosine"``      — the cosine-series synopsis (the paper's method),
- ``"basic_sketch"``   — Alon et al.'s AGMS sketch,
- ``"skimmed_sketch"`` — Ganguly et al.'s skimmed sketch,
- ``"sample"``      — Bernoulli sampling (the 1988 estimator lineage),
- ``"histogram"``   — equi-width histogram (single-join queries only),
- ``"wavelet"``     — Haar top-coefficient synopsis (single-join only),
- ``"partitioned_sketch"`` — Dobra et al.'s domain-partitioned sketch
  (single-join only; the partition is derived from the relations' state at
  registration time, making the method's a-priori-knowledge assumption
  concrete).
"""

from __future__ import annotations

import weakref
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping, Sequence, TypeVar, cast

import numpy as np
from numpy.typing import NDArray

from .._blas import one_blas_thread
from ..core.join import estimate_multijoin_size as cosine_multijoin
from ..obs.accuracy import AccuracyTracker
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..core.basis import GridKind
from ..core.normalization import Domain, index_map
from ..resilience.checkpoint import (
    domain_from_spec,
    domain_to_spec,
    read_checkpoint,
    write_checkpoint,
)
from ..resilience.deadletter import DeadLetterBuffer
from ..resilience.errors import CheckpointError, DegradedQueryError
from ..core.synopsis import CosineSynopsis
from ..histograms.equiwidth import EquiWidthHistogram
from ..histograms.equiwidth import estimate_join_size as histogram_join
from ..sampling.estimators import estimate_chain_join_size_samples
from ..sampling.reservoir import BernoulliSample
from ..sketches.basic import AGMSSketch, split_budget
from ..sketches.basic import estimate_multijoin_size as sketch_multijoin
from ..sketches.hashing import SignFamily
from ..sketches.skimmed import estimate_multijoin_size_skimmed
from .exact import exact_multijoin_size
from .queries import JoinQuery
from .relation import IndexMap, StreamObserver, StreamRelation
from .stats import EngineStats
from .tuples import OpKind, StreamOp

if TYPE_CHECKING:
    from ..bounds.calculator import JoinBoundCalculator
    from ..bounds.degree import DegreeSketch
    from ..sketches.partitioned import PartitionedSketch
    from ..wavelets.haar import HaarSynopsis

Slot = tuple[int, int]
_Observer = TypeVar("_Observer", bound=StreamObserver)


def embed_counts_tensor(
    tensor: NDArray[Any],
    originals: Sequence[Domain],
    unifieds: Sequence[Domain],
) -> NDArray[Any]:
    """Embed a joint count tensor into unified per-axis domains (section 4.1)."""
    out = np.asarray(tensor)
    for axis, (orig, uni) in enumerate(zip(originals, unifieds)):
        if orig == uni:
            continue
        moved = np.moveaxis(out, axis, 0)
        embedded = np.zeros((uni.size,) + moved.shape[1:], dtype=out.dtype)
        embedded[index_map(orig, uni)] = moved
        out = np.moveaxis(embedded, 0, axis)
    return out


def join_spec(
    query: JoinQuery, method: str, budget: int, options: Mapping[str, Any]
) -> dict[str, Any]:
    """The serialized registration of a join query (checkpoint and wire form)."""
    return {
        "kind": "join",
        "relations": list(query.relations),
        "predicates": [str(p) for p in query.predicates],
        "method": method,
        "budget": budget,
        "options": dict(options),
    }


def range_spec(
    relation: str, attribute: str, low: Any, high: Any, budget: int,
    options: Mapping[str, Any],
) -> dict[str, Any]:
    """The serialized registration of a range-COUNT query."""
    return {
        "kind": "range",
        "relation": relation,
        "attribute": attribute,
        "low": low,
        "high": high,
        "budget": budget,
        "options": dict(options),
    }


def band_spec(
    left: Sequence[str], right: Sequence[str], width: int, budget: int,
    options: Mapping[str, Any],
) -> dict[str, Any]:
    """The serialized registration of a band-join COUNT query."""
    return {
        "kind": "band",
        "left": list(left),
        "right": list(right),
        "width": width,
        "budget": budget,
        "options": dict(options),
    }


class _QueryState:
    """Per-registered-query synopsis state and estimation closure."""

    def __init__(
        self,
        query: JoinQuery,
        method: str,
        estimate: Callable[[], float],
        space_per_relation: Mapping[str, int],
        exact: Callable[[], float] | None = None,
    ) -> None:
        self.query = query
        self.method = method
        self.estimate = estimate
        self.space_per_relation = dict(space_per_relation)
        #: Ground truth of a query that is not a join COUNT (a range or
        #: band); ``None`` means :meth:`ContinuousQueryEngine.exact_join_size`.
        self.exact = exact
        #: (relation, observer) pairs this query reads, possibly shared
        #: with other queries, and the shared-table key of each.
        self.attachments: list[tuple[StreamRelation, StreamObserver]] = []
        self.keys: list[Hashable] = []
        #: Registration spec (kind/method/budget/options), recorded so
        #: checkpoints can re-register the query on a restored engine.
        self.spec: dict[str, Any] | None = None
        #: Degradation reason, set when one of this query's observers was
        #: quarantined after raising; ``None`` while healthy.
        self.degraded: str | None = None
        #: Pessimistic bound calculator, set when the query was registered
        #: with ``bounds=True``; shares its degree sketches with the
        #: attached :class:`repro.bounds.degree.DegreeObserver` instances,
        #: so it is rebuilt (not serialized) on re-registration.
        self.bound_calc = None


class _Share:
    """One live observer of the shared table and how many queries hold it."""

    def __init__(self, relation: StreamRelation, observer: StreamObserver) -> None:
        self.relation = relation
        self.observer = observer
        self.holders = 0


class ContinuousQueryEngine:
    """Registers stream relations and continuous join-COUNT queries.

    Building a process's first engine runs its OpenBLAS on one thread
    from then on, in the children it forks too, unless
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
    is set (:func:`repro._blas.one_blas_thread`).
    """

    def __init__(
        self,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        shard: str | None = None,
    ) -> None:
        one_blas_thread()
        self.relations: dict[str, StreamRelation] = {}
        self._queries: dict[str, _QueryState] = {}
        self._seed = seed
        #: Live observers by key, each with the number of queries holding it.
        self._shared: dict[Hashable, _Share] = {}
        #: Keys taken by the registration in progress.
        self._pending: list[Hashable] = []
        #: One sign family per ``(domain size, functions, seed)``, so every
        #: sketch of a family reads one lazily filled sign table; an entry
        #: lives only while some sketch holds its family.
        self._families: weakref.WeakValueDictionary[tuple[int, int, int], SignFamily] = (
            weakref.WeakValueDictionary()
        )
        #: The engine's sign family for ``(domain_size, num_functions,
        #: seed)``.  Partitioned sketches keep it to rebuild their families
        #: on restore, so it holds the table rather than the engine.
        self._family = partial(_shared_family, self._families)
        #: The engine's telemetry hub (metrics registry + span tracer).
        #: Pass ``Telemetry.disabled()`` for a zero-overhead engine, or a
        #: shared hub to aggregate several engines into one registry.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Shard identity, set when this engine is one member of a
        #: :class:`repro.sharding.engine.ShardedStreamEngine` fleet; adds a
        #: ``shard`` label to the relation/observer metric families so
        #: merged fleet registries keep per-shard resolution.
        self.shard = shard
        self._stats = EngineStats(registry=self.telemetry.registry, shard=shard)
        self._accuracy: AccuracyTracker | None = None
        #: Degraded-answer policy once :meth:`enable_fault_isolation` has
        #: been called; ``None`` means isolation is off (faults raise).
        self._fault_policy: str | None = None
        #: The relations' fault handler while isolation is on.  It holds
        #: the engine's tables, not the engine, so no relation keeps its
        #: engine alive.
        self._quarantine = partial(
            _quarantine, self._queries, self._shared, self.telemetry.registry
        )
        #: Bounded buffer of rejected rows once
        #: :meth:`enable_dead_lettering` has been called; ``None`` means
        #: malformed batches raise.
        self.dead_letters: DeadLetterBuffer | None = None

    def _share(
        self, relation: StreamRelation, key: Hashable, build: Callable[[], _Observer]
    ) -> _Observer:
        """The live observer for ``key``, built from history and attached on first use."""
        share = self._shared.get(key)
        if share is None:
            share = self._shared[key] = _Share(relation, build())
            relation.attach(share.observer)
        self._pending.append(key)
        return cast(_Observer, share.observer)

    def _attach(self, relation: StreamRelation, observer: StreamObserver) -> None:
        """Attach an observer that no other query shares."""
        self._share(relation, object(), lambda: observer)

    def _install(
        self, name: str, spec: dict[str, Any], build: Callable[[], _QueryState]
    ) -> None:
        """Register the query ``build`` returns, or roll its new observers back."""
        self._pending = []
        try:
            state = build()
        except Exception:
            # a failed registration leaves no orphan observers slowing the
            # relations down; shares other queries hold stay as they were
            for key in self._pending:
                share = self._shared.get(key)
                if share is not None and share.holders == 0:
                    share.relation.detach(share.observer)
                    del self._shared[key]
            self._pending = []
            raise
        keys, self._pending = self._pending, []
        for key in keys:
            share = self._shared[key]
            if share.holders == 0:
                # time is attributed to the method of the query that built
                # the observer; degree maintenance is bounds work whatever
                # the synopsis method, so it reports separately
                bound = getattr(share.observer, "is_bound_observer", False)
                share.observer.stats_key = "bounds" if bound else state.method
            share.holders += 1
            state.attachments.append((share.relation, share.observer))
        state.keys = keys
        state.spec = spec
        self._queries[name] = state

    def stats(self) -> EngineStats:
        """Live ingest/estimation counters (see :class:`EngineStats`).

        Observer update time is attributed to the owning query's estimation
        method.  Call ``stats().reset()`` to zero the counters in place.
        The same numbers live in ``self.telemetry.registry`` for the
        :mod:`repro.obs.exporters` export paths.
        """
        return self._stats

    def track_accuracy(
        self, every_ops: int = 1000, queries: Sequence[str] | None = None
    ) -> AccuracyTracker:
        """Start online estimate-vs-exact tracking at an ingest cadence.

        Every ``every_ops`` ingested operations, each tracked query's
        ``answer()`` is compared against ``exact_answer()`` and the
        relative error folded into streaming aggregates (see
        :class:`repro.obs.accuracy.AccuracyTracker`, returned here and
        also available as :attr:`accuracy`).  Requires enabled telemetry —
        the cadence is driven by the ingest counters.
        """
        if not self.telemetry.enabled:
            raise ValueError("accuracy tracking requires enabled telemetry")
        self._accuracy = AccuracyTracker(
            self, every_ops=every_ops, queries=queries,
            registry=self.telemetry.registry,
        )
        return self._accuracy

    @property
    def accuracy(self) -> AccuracyTracker | None:
        """The active accuracy tracker, if :meth:`track_accuracy` was called."""
        return self._accuracy

    # ------------------------------------------------------------------ #
    # relations
    # ------------------------------------------------------------------ #

    def create_relation(
        self, name: str, attributes: Sequence[str], domains: Sequence[Domain]
    ) -> StreamRelation:
        """Declare a stream relation and return it."""
        if name in self.relations:
            raise ValueError(f"relation {name!r} already exists")
        relation = StreamRelation(name, attributes, domains)
        self._instrument(relation)
        self.relations[name] = relation
        return relation

    def add_relation(self, relation: StreamRelation) -> None:
        """Register an existing relation object."""
        if relation.name in self.relations:
            raise ValueError(f"relation {relation.name!r} already exists")
        self._instrument(relation)
        self.relations[relation.name] = relation

    def _instrument(self, relation: StreamRelation) -> None:
        """Hand the relation the engine's stats/tracer (or nothing at all).

        A disabled hub leaves both hooks ``None``, so the relation hot
        path is exactly the uninstrumented one.
        """
        if self.telemetry.enabled:
            relation.stats = self._stats
            relation.tracer = self.telemetry.tracer
        if self._fault_policy is not None:
            relation.fault_handler = self._quarantine

    def process(self, relation_name: str, op: StreamOp) -> None:
        """Route one stream operation to its relation (and its observers)."""
        self.relations[relation_name].process(op)
        if self._accuracy is not None:
            self._accuracy.maybe_sample()

    def insert(self, relation_name: str, values: Sequence[Any]) -> None:
        self.relations[relation_name].insert(values)
        if self._accuracy is not None:
            self._accuracy.maybe_sample()

    def delete(self, relation_name: str, values: Sequence[Any]) -> None:
        self.relations[relation_name].delete(values)
        if self._accuracy is not None:
            self._accuracy.maybe_sample()

    def ingest_batch(
        self,
        relation_name: str,
        rows: Sequence[Sequence[Any]] | NDArray[Any],
        kind: OpKind = OpKind.INSERT,
    ) -> None:
        """Ingest a same-kind batch of raw tuples through the fast path.

        Each value is mapped to its domain index once; the exact tensor
        takes one scatter-add and each observer one ``on_ops`` call, so
        the state is that of ingesting the rows one at a time (float sums
        up to summation order).  An empty batch is a no-op.  With
        :meth:`enable_dead_lettering` active, malformed rows (wrong arity,
        NaN/inf, out-of-domain values) go to :attr:`dead_letters` and the
        rest is applied with the indices validation found.
        """
        relation = self.relations[relation_name]
        if self.dead_letters is None:
            relation.apply_rows(rows, kind)
        else:
            clean, indices = self.dead_letters.divert(relation, rows, kind, self.telemetry.registry)
            relation.apply_located(clean, indices, kind)
        if self._accuracy is not None:
            self._accuracy.maybe_sample()

    def process_batch(self, relation_name: str, ops: Sequence[StreamOp]) -> None:
        """Route a mixed insert/delete operation sequence, batching runs."""
        self.relations[relation_name].process_batch(ops)
        if self._accuracy is not None:
            self._accuracy.maybe_sample()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def register_query(
        self,
        name: str,
        query: JoinQuery,
        method: str = "cosine",
        budget: int = 200,
        **options: Any,
    ) -> None:
        """Register a continuous query under a per-relation space budget.

        ``budget`` is the paper's space unit: coefficients / atomic sketches
        per relation (sample size for ``"sample"``, buckets for
        ``"histogram"``).  Already-streamed history is replayed into new
        synopses from the exact relation state; a synopsis another query
        already keeps under the same key is shared instead.
        """
        if name in self._queries:
            raise ValueError(f"query {name!r} already registered")
        builders = {
            "cosine": self._build_cosine,
            "basic_sketch": self._build_sketch,
            "skimmed_sketch": self._build_sketch,
            "sample": self._build_sample,
            "histogram": self._build_histogram,
            "wavelet": self._build_wavelet,
            "partitioned_sketch": self._build_partitioned,
        }
        if method not in builders:
            raise ValueError(f"unknown method {method!r}; choose from {sorted(builders)}")
        for rel in query.relations:
            if rel not in self.relations:
                raise ValueError(f"query references relation {rel!r} not registered")
        schemas = {r: self.relations[r].attributes for r in query.relations}
        query.validate_against(schemas)

        def build() -> _QueryState:
            state = builders[method](query, method, budget, options)
            if options.get("bounds"):
                # The degree observers follow the synopsis observers in
                # ``state.attachments`` — checkpoint restore and sharded
                # merges both rely on that fixed order.
                state.bound_calc = self._attach_bounds(query)
            return state

        self._install(name, join_spec(query, method, budget, options), build)

    def unregister_query(self, name: str) -> None:
        """Drop a continuous query; detach the observers no other query holds."""
        state = self._queries.pop(name, None)
        if state is None:
            raise KeyError(f"no query named {name!r}")
        for key, (relation, observer) in zip(state.keys, state.attachments):
            share = self._shared.get(key)
            if share is None or share.observer is not observer:
                continue  # quarantined, so already detached
            share.holders -= 1
            if share.holders == 0:
                relation.detach(observer)
                del self._shared[key]

    def register_range_query(
        self,
        name: str,
        relation_name: str,
        attribute: str,
        low: Any,
        high: Any,
        budget: int = 200,
        **options: Any,
    ) -> None:
        """Register a continuous range-COUNT query over one attribute.

        Estimates ``|{t in R : low <= t.attribute <= high}|`` (raw-value
        bounds, inclusive) from a cosine synopsis of the attribute's
        marginal — the point/range estimation usage the paper's section 2
        surveys as the mainstream of approximate query processing.
        """
        if name in self._queries:
            raise ValueError(f"query {name!r} already registered")
        if options.get("bounds"):
            raise ValueError("bounds=True is only supported for join queries")
        if relation_name not in self.relations:
            raise ValueError(f"relation {relation_name!r} not registered")
        relation = self.relations[relation_name]
        if attribute not in relation.attributes:
            raise ValueError(f"{relation_name}.{attribute} does not exist")
        axis = relation.attributes.index(attribute)
        domain = relation.domains[axis]
        lo_index = domain.index_of(low)
        hi_index = domain.index_of(high)
        if lo_index > hi_index:
            raise ValueError(f"empty range [{low}, {high}]")

        from ..core.range_query import estimate_range_count

        def build() -> _QueryState:
            synopsis = self._cosine(
                "marginal",
                relation_name,
                [axis],
                [domain],
                budget,
                grid=options.get("grid", "midpoint"),
            )

            def estimate() -> float:
                return estimate_range_count(synopsis, lo_index, hi_index)

            def exact() -> float:
                live = _marginalize(relation.counts, keep_axes=[axis])
                return float(live[lo_index : hi_index + 1].sum())

            return _QueryState(
                JoinQuery((relation_name,)),
                "cosine_range",
                estimate,
                {relation_name: budget},
                exact,
            )

        spec = range_spec(relation_name, attribute, low, high, budget, options)
        self._install(name, spec, build)

    def register_band_query(
        self,
        name: str,
        left: tuple[str, str],
        right: tuple[str, str],
        width: int,
        budget: int = 200,
        **options: Any,
    ) -> None:
        """Register a continuous band-join COUNT query (section 6 extension).

        Estimates ``|{(s, t) : |s.A - t.B| <= width}|`` for
        ``left = ("R1", "A")`` and ``right = ("R2", "B")``, with the band
        width in *unified-domain index* units.  Width 0 is the equi-join.
        """
        from ..core.theta_join import estimate_band_join_size

        if name in self._queries:
            raise ValueError(f"query {name!r} already registered")
        if options.get("bounds"):
            raise ValueError("bounds=True is only supported for join queries")
        join_query = JoinQuery.parse(
            [left[0], right[0]], [f"{left[0]}.{left[1]} = {right[0]}.{right[1]}"]
        )
        for rel in join_query.relations:
            if rel not in self.relations:
                raise ValueError(f"relation {rel!r} not registered")
        schemas = {r: self.relations[r].attributes for r in join_query.relations}
        join_query.validate_against(schemas)
        unified = self._unified(join_query)
        sides = [
            (join_query.relations[rel_pos], axis)
            for rel_pos, axis in join_query.slot_pairs(schemas)[0]
        ]
        marginals = [
            (self.relations[rel_name], axis, unified[rel_name][axis]) for rel_name, axis in sides
        ]

        def build() -> _QueryState:
            synopses = [
                self._cosine("marginal", rel_name, [axis], [unified[rel_name][axis]], budget)
                for rel_name, axis in sides
            ]

            def estimate() -> float:
                return estimate_band_join_size(synopses[0], synopses[1], width)

            def exact() -> float:
                a, b = (
                    _history(relation, [axis], [domain]).astype(float)
                    for relation, axis, domain in marginals
                )
                n = a.shape[0]
                prefix = np.concatenate([[0.0], np.cumsum(b)])
                hi = np.minimum(np.arange(n) + width + 1, n)
                lo = np.maximum(np.arange(n) - width, 0)
                return float(a @ (prefix[hi] - prefix[lo]))

            return _QueryState(
                join_query, "cosine_band", estimate, {rel: budget for rel, _ in sides}, exact
            )

        self._install(name, band_spec(left, right, width, budget, options), build)

    def register_query_spec(self, name: str, spec: Mapping[str, Any]) -> None:
        """Register a query from its serialized spec.

        Takes the ``{"kind": "join" | "range" | "band", ...}`` dictionaries
        that :func:`join_spec`, :func:`range_spec` and :func:`band_spec`
        build: the form checkpoints, fleet manifests and the serve
        daemon's protocol carry.
        """
        kind = spec.get("kind")
        options = dict(spec.get("options", {}))
        if kind == "join":
            query = JoinQuery.parse(spec["relations"], spec["predicates"])
            self.register_query(
                name, query, method=spec["method"], budget=spec["budget"], **options
            )
        elif kind == "range":
            self.register_range_query(
                name,
                spec["relation"],
                spec["attribute"],
                spec["low"],
                spec["high"],
                budget=spec["budget"],
                **options,
            )
        elif kind == "band":
            self.register_band_query(
                name,
                tuple(spec["left"]),
                tuple(spec["right"]),
                spec["width"],
                budget=spec["budget"],
                **options,
            )
        else:
            raise ValueError(
                f"query {name!r} has unknown kind {kind!r}; "
                "choose from 'join', 'range', 'band'"
            )

    def answer(self, name: str) -> float:
        """Current estimate of a registered query.

        A query degraded by observer fault isolation answers according to
        the policy given to :meth:`enable_fault_isolation`: ``"raise"``
        surfaces a typed :class:`DegradedQueryError`, ``"nan"`` returns
        NaN, and ``"exact"`` falls back to the ground-truth answer.
        """
        state = self._queries[name]
        if state.degraded is not None:
            if self._fault_policy in (None, "raise"):
                raise DegradedQueryError(name, state.degraded)
            if self._fault_policy == "nan":
                return float("nan")
            return self.exact_answer(name)
        if not self.telemetry.enabled:
            return state.estimate()
        start = perf_counter()
        value = state.estimate()
        seconds = perf_counter() - start
        self._stats.record_estimate(seconds, query=name)
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.emit(
                "estimate", seconds, start=start, query=name, method=state.method
            )
        return value

    def answers(self) -> dict[str, float]:
        """Current estimates of all registered queries."""
        return {name: self.answer(name) for name in self._queries}

    def query_names(self) -> list[str]:
        """Names of all registered queries, in registration order."""
        return list(self._queries)

    def exact_answer(self, name: str) -> float:
        """Ground-truth answer of a registered query (for evaluation)."""
        state = self._queries[name]
        if state.exact is not None:
            return state.exact()
        return self.exact_join_size(state.query)

    def exact_join_size(self, query: JoinQuery) -> float:
        """Ground-truth size of any query over the registered relations."""
        schemas = {r: self.relations[r].attributes for r in query.relations}
        unified = query.unified_domains(
            schemas, {r: self.relations[r].domains for r in query.relations}
        )
        tensors = [
            embed_counts_tensor(
                self.relations[r].counts, self.relations[r].domains, unified[r]
            )
            for r in query.relations
        ]
        return exact_multijoin_size(tensors, query.slot_pairs(schemas))

    def query_states(self, name: str) -> tuple[str | None, list[dict[str, Any]]]:
        """A query's degradation reason and the state of each observer it reads.

        The states come in the query's attachment order, which every
        engine registering the same spec shares, so another engine's
        :meth:`load_query_states` takes them as they are (a fleet sums
        its shards' lists first).
        """
        state = self._queries[name]
        return state.degraded, [observer.state_dict() for _, observer in state.attachments]

    def load_query_states(
        self, name: str, states: Sequence[dict[str, Any]], degraded: str | None = None
    ) -> None:
        """Overwrite a query's observer states with ones :meth:`query_states` gave.

        A ``degraded`` reason marks the query degraded instead, so its
        reads follow the :meth:`enable_fault_isolation` policy; loading
        states clears the mark, unless this engine quarantined one of the
        query's observers (a ``ValueError``: that observer no longer sees
        the stream).  This is how a sharded fleet's template engine
        answers: from merged shard states, through the same modes, bound
        report and fault policy as any engine.
        """
        state = self._queries[name]
        if degraded is None and len(states) != len(state.attachments):
            raise ValueError(
                f"query {name!r} reads {len(state.attachments)} observers, "
                f"got {len(states)} states"
            )
        if degraded is None and state.degraded is not None:
            live = {id(share.observer) for share in self._shared.values()}
            if any(id(observer) not in live for _, observer in state.attachments):
                raise ValueError(
                    f"query {name!r} reads a quarantined observer; "
                    "re-register it instead of loading states"
                )
        state.degraded = degraded
        for (_, observer), observer_state in zip(state.attachments, states):
            observer.load_state(observer_state)

    def space_report(self) -> dict[str, dict[str, int]]:
        """Per-query, per-relation synopsis space (paper units)."""
        return {name: dict(s.space_per_relation) for name, s in self._queries.items()}

    # ------------------------------------------------------------------ #
    # pessimistic bounds
    # ------------------------------------------------------------------ #

    def _attach_bounds(self, query: JoinQuery) -> "JoinBoundCalculator":
        """Attach degree observers for every join slot; build the calculator.

        One :class:`repro.bounds.degree.DegreeSketch` per (relation
        position, joined axis), fed from the relation's stream and
        initialized from the already-ingested history by marginalizing
        the exact count tensor onto the slot's unified domain.  A
        relation with no predicate gets a count-only sketch on axis 0 so
        its cardinality survives sharded merges (where the coordinator
        template's relations are empty).
        """
        from ..bounds.calculator import JoinBoundCalculator

        unified = self._unified(query)
        schemas = {r: self.relations[r].attributes for r in query.relations}
        joined = self._joined_axes(query)
        sketches: dict[Slot, "DegreeSketch"] = {}
        for rel_pos, rel_name in enumerate(query.relations):
            for axis in sorted(set(joined[rel_name])) or [0]:
                sketches[(rel_pos, axis)] = self._degree(
                    rel_name, axis, unified[rel_name][axis]
                )
        return JoinBoundCalculator(
            len(query.relations), query.slot_pairs(schemas), sketches
        )

    def estimate(self, name: str, mode: str = "answer") -> float:
        """Answer one registered query in a chosen estimation mode.

        ``"answer"`` is the method's point estimate (identical to
        :meth:`answer`); ``"upper_bound"`` is the guaranteed
        degree-sequence join-size bound; ``"clamped"`` is
        ``min(estimate, upper_bound)``.  The bound modes require the
        query to have been registered with ``bounds=True``.
        """
        if mode == "answer":
            return self.answer(name)
        if mode not in ("upper_bound", "clamped"):
            raise ValueError(
                f"unknown estimation mode {mode!r}; "
                "choose from 'answer', 'upper_bound', 'clamped'"
            )
        state = self._queries[name]
        if state.bound_calc is None:
            raise ValueError(
                f"query {name!r} was not registered with bounds=True; "
                f"mode {mode!r} needs degree statistics"
            )
        if mode == "upper_bound":
            # a pure bound read: no point estimate is computed, so it
            # works even where the method's estimator cannot answer yet
            if state.degraded is not None:
                return float("nan")
            return float(state.bound_calc.upper_bound())
        report = self.bound_report(name)
        assert report is not None
        return float(report["clamped"])

    def bound_report(self, name: str) -> dict[str, Any] | None:
        """Bound metadata for one query, or ``None`` when bounds are off.

        Returns ``{"estimate", "upper_bound", "clamped", "clamp_fired"}``
        where ``clamped`` is ``min(estimate, upper_bound)`` (a NaN
        estimate clamps to the bound — the bound is the only sound
        number available).  A *degraded* query answers per the fault
        policy and reports a NaN bound: its quarantined observer may be
        the degree observer itself, so no sound bound exists.  Clamp
        events and bound tightness are recorded in the telemetry
        registry per query.
        """
        state = self._queries[name]
        if state.bound_calc is None:
            return None
        estimate = self.answer(name)
        if state.degraded is not None:
            return {
                "estimate": estimate,
                "upper_bound": float("nan"),
                "clamped": estimate,
                "clamp_fired": False,
            }
        bound = float(state.bound_calc.upper_bound())
        clamped = estimate if estimate <= bound else bound
        fired = bool(estimate > bound)
        if self.telemetry.enabled:
            self._record_bound_metrics(name, bound, clamped, fired)
        return {
            "estimate": estimate,
            "upper_bound": bound,
            "clamped": clamped,
            "clamp_fired": fired,
        }

    def _record_bound_metrics(
        self, name: str, bound: float, clamped: float, fired: bool
    ) -> None:
        registry = self.telemetry.registry
        if fired:
            registry.counter(
                "repro_bound_clamps_total",
                "Answers clamped because the point estimate exceeded the "
                "guaranteed upper bound, per query.",
                labelnames=("query",),
            ).labels(name).inc()
        tightness = 1.0 if bound <= 0 else min(1.0, max(clamped, 0.0) / bound)
        registry.gauge(
            "repro_bound_tightness_ratio",
            "Clamped estimate as a fraction of its guaranteed upper bound, "
            "per query (1.0 = estimate at or above the bound).",
            labelnames=("query",),
        ).labels(name).set(tightness)

    # ------------------------------------------------------------------ #
    # fault tolerance
    # ------------------------------------------------------------------ #

    def enable_fault_isolation(self, policy: str = "raise") -> None:
        """Quarantine observers that raise instead of aborting ingest.

        With isolation enabled, an observer raising from ``on_ops`` is
        detached from its relation, its owning query is marked degraded,
        and ingest continues for every other observer —
        the exact tensors are already updated before observers run, so
        ground truth is never corrupted by a synopsis fault.  Faults are
        counted in ``repro_observer_faults_total`` (per method) and the
        ``repro_queries_degraded`` gauge tracks how many queries are
        currently degraded.

        ``policy`` selects what :meth:`answer` does for a degraded query:
        ``"raise"`` (default) raises :class:`DegradedQueryError`,
        ``"nan"`` returns NaN, ``"exact"`` falls back to the ground-truth
        answer.
        """
        if policy not in ("raise", "nan", "exact"):
            raise ValueError(
                f"unknown degraded-answer policy {policy!r}; "
                "choose from 'raise', 'nan', 'exact'"
            )
        self._fault_policy = policy
        for relation in self.relations.values():
            relation.fault_handler = self._quarantine

    def degraded_queries(self) -> dict[str, str]:
        """Currently degraded queries, mapped to their fault reason."""
        return {
            name: state.degraded
            for name, state in self._queries.items()
            if state.degraded is not None
        }

    def enable_dead_lettering(self, capacity: int = 1024) -> DeadLetterBuffer:
        """Divert malformed ingest rows into a bounded dead-letter buffer.

        After this call, :meth:`ingest_batch` validates rows up front
        (arity, finiteness, domain membership), ingests the clean
        remainder, and parks rejects in the returned
        :class:`DeadLetterBuffer` (also available as
        :attr:`dead_letters`), counted per relation and reason in
        ``repro_ingest_dead_letters_total``.  The per-tuple ``process`` /
        ``insert`` / ``delete`` paths keep their raise-on-bad-input
        semantics.
        """
        self.dead_letters = DeadLetterBuffer(capacity)
        return self.dead_letters

    # ------------------------------------------------------------------ #
    # checkpoint / recovery
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, path: Path | str, **write_options: Any) -> int:
        """Atomically write the engine's full state to a checkpoint file.

        The checkpoint captures every relation's exact count tensor, every
        registered query's registration spec, and every attached synopsis
        observer's mutable state (including sample RNG bit state), so
        :meth:`load_checkpoint` restores an engine whose ``answers()`` —
        and whose behaviour on all *future* ingest — matches the
        checkpointed one exactly.  Each observer's state is stored once,
        under ``"observers"``; a query lists the positions of the
        observers it holds, and ``"quarantined"`` lists the positions of
        observers fault isolation detached.  Returns the file size in bytes;
        ``write_options`` are forwarded to
        :func:`repro.resilience.checkpoint.write_checkpoint` (retry
        policy, sleep injection).
        """
        observers: list[StreamObserver] = []
        position: dict[int, int] = {}
        live = {id(share.observer) for share in self._shared.values()}
        queries = []
        for name, state in self._queries.items():
            if state.spec is None:
                raise CheckpointError(
                    f"query {name!r} has no registration spec and cannot be "
                    "checkpointed"
                )
            refs = []
            for _, observer in state.attachments:
                if id(observer) not in position:
                    position[id(observer)] = len(observers)
                    observers.append(observer)
                refs.append(position[id(observer)])
            queries.append(
                {"name": name, "spec": state.spec, "degraded": state.degraded, "observers": refs}
            )
        payload = {
            "engine": {
                "seed": self._seed,
                "fault_policy": self._fault_policy,
                "dead_letter_capacity": (
                    None if self.dead_letters is None else self.dead_letters.capacity
                ),
            },
            "relations": {
                name: {
                    "attributes": list(relation.attributes),
                    "domains": [domain_to_spec(d) for d in relation.domains],
                    # pickled in place: the write finishes before ingest resumes
                    "counts": relation.counts,
                }
                for name, relation in self.relations.items()
            },
            "observers": [observer.state_dict() for observer in observers],
            "quarantined": [
                ref for ref, observer in enumerate(observers) if id(observer) not in live
            ],
            "queries": queries,
        }
        return write_checkpoint(path, payload, **write_options)

    @classmethod
    def load_checkpoint(
        cls, path: Path | str, telemetry: Telemetry | None = None, shard: str | None = None
    ) -> "ContinuousQueryEngine":
        """Restore an engine from a checkpoint written by :meth:`save_checkpoint`.

        Relations are recreated with their exact tensors, queries are
        re-registered from their recorded specs, and each synopsis
        observer's state is then overwritten in place from the checkpoint
        — so estimates, sample coin flips, and partition geometry continue
        bit-for-bit from where the checkpointed engine stopped.  An
        observer that was quarantined is detached again and leaves the
        shared table, so a later registration of its key builds a fresh
        synopsis from history, as it would have on the original engine.
        """
        payload = read_checkpoint(path)
        try:
            engine_meta = payload["engine"]
            engine = cls(seed=int(engine_meta["seed"]), telemetry=telemetry, shard=shard)
            for name, rel_state in payload["relations"].items():
                relation = engine.create_relation(
                    name,
                    rel_state["attributes"],
                    [domain_from_spec(s) for s in rel_state["domains"]],
                )
                relation.load_counts(rel_state["counts"])
            states = payload["observers"]
            quarantined = set(payload["quarantined"])
            for entry in payload["queries"]:
                try:
                    engine.register_query_spec(entry["name"], entry["spec"])
                except ValueError as exc:
                    raise CheckpointError(f"checkpoint {path}: {exc}") from exc
                state = engine._queries[entry["name"]]
                refs = entry["observers"]
                if len(refs) != len(state.attachments):
                    raise CheckpointError(
                        f"checkpoint query {entry['name']!r} recorded "
                        f"{len(refs)} observers for "
                        f"{len(state.attachments)} attachments"
                    )
                state.degraded = entry.get("degraded")
                for key, (relation, observer), ref in zip(state.keys, state.attachments, refs):
                    observer.load_state(states[ref])
                    # Every holder of a quarantined observer registered
                    # before the live observer of its key was built, so
                    # dropping it here hands later registrations a fresh one.
                    share = engine._shared.get(key)
                    if ref in quarantined and share is not None and share.observer is observer:
                        relation.detach(observer)
                        del engine._shared[key]
            if engine_meta.get("fault_policy") is not None:
                engine.enable_fault_isolation(engine_meta["fault_policy"])
            if engine_meta.get("dead_letter_capacity") is not None:
                engine.enable_dead_lettering(engine_meta["dead_letter_capacity"])
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint {path} is missing field {exc.args[0]!r}"
            ) from exc
        return engine

    # ------------------------------------------------------------------ #
    # method builders
    # ------------------------------------------------------------------ #

    def _unified(self, query: JoinQuery) -> dict[str, list[Domain]]:
        schemas = {r: self.relations[r].attributes for r in query.relations}
        return query.unified_domains(
            schemas, {r: self.relations[r].domains for r in query.relations}
        )

    def _joined_axes(self, query: JoinQuery) -> dict[str, list[int]]:
        """Axes of each relation that participate in some predicate."""
        schemas = {r: self.relations[r].attributes for r in query.relations}
        axes: dict[str, list[int]] = {r: [] for r in query.relations}
        for (rel_a, ax_a), (rel_b, ax_b) in query.slot_pairs(schemas):
            axes[query.relations[rel_a]].append(ax_a)
            axes[query.relations[rel_b]].append(ax_b)
        return {r: sorted(a) for r, a in axes.items()}

    def _cosine(
        self,
        use: str,
        rel_name: str,
        axes: Sequence[int],
        domains: Sequence[Domain],
        budget: int,
        truncation: str = "triangular",
        grid: GridKind = "midpoint",
    ) -> CosineSynopsis:
        """The shared cosine synopsis of ``rel_name`` projected on ``axes``.

        ``use`` is ``"join"`` for a join query's synopsis of a whole
        relation or ``"marginal"`` for the one-attribute synopsis of a
        range or band query.  The two never share, even where they hold
        the same sums, so a fault in one kind leaves the other answering.
        """
        relation = self.relations[rel_name]

        def build() -> _CosineObserver:
            synopsis = CosineSynopsis.from_counts(
                [Domain.of_size(d.size) for d in domains],  # only the sizes matter
                _history(relation, axes, domains),
                budget=budget,
                truncation=truncation,
                grid=grid,
            )
            return _CosineObserver(synopsis, relation.index_maps(axes, domains), axes)

        key = ("cosine", use, rel_name, tuple(axes), tuple(domains), budget, truncation, grid)
        return self._share(relation, key, build).synopsis

    def _sketch(
        self,
        rel_name: str,
        axes: Sequence[int],
        domains: Sequence[Domain],
        seeds: Sequence[int],
        s1: int,
        s2: int,
    ) -> AGMSSketch:
        """The shared AGMS sketch of ``rel_name`` on ``axes``, one sign seed per axis."""
        relation = self.relations[rel_name]

        def build() -> _SketchObserver:
            families = [self._family(d.size, s1 * s2, seed) for d, seed in zip(domains, seeds)]
            history = _history(relation, axes, domains)
            sketch = AGMSSketch.from_counts(families, history, s1, s2)
            return _SketchObserver(sketch, relation.index_maps(axes, domains), axes)

        key = ("agms", rel_name, tuple(axes), tuple(domains), tuple(seeds), s1, s2)
        return self._share(relation, key, build).sketch

    def _axis_synopsis(
        self,
        method: str,
        kind: type[EquiWidthHistogram] | type[HaarSynopsis],
        rel_name: str,
        axis: int,
        domain: Domain,
        budget: int,
    ) -> Any:
        """The shared ``kind`` synopsis (histogram or Haar) of ``rel_name`` on one axis."""
        relation = self.relations[rel_name]

        def build() -> _AxisObserver:
            synopsis = kind.from_counts(domain, _history(relation, [axis], [domain]), budget)
            (table,) = relation.index_maps([axis], [domain])
            return _AxisObserver(synopsis, table, axis)

        key = (method, rel_name, axis, domain, budget)
        return self._share(relation, key, build).synopsis

    def _degree(self, rel_name: str, axis: int, domain: Domain) -> "DegreeSketch":
        """The shared exact degree sketch of ``rel_name`` on one axis."""
        from ..bounds.degree import DegreeObserver, DegreeSketch

        relation = self.relations[rel_name]

        def build() -> DegreeObserver:
            sketch = DegreeSketch(domain.size)
            sketch.load_counts(_history(relation, [axis], [domain]))
            return DegreeObserver(sketch, domain, axis)

        return self._share(relation, ("degree", rel_name, axis, domain), build).sketch

    def _build_cosine(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        unified = self._unified(query)
        schemas = {r: self.relations[r].attributes for r in query.relations}
        synopses = [
            self._cosine(
                "join",
                rel_name,
                range(self.relations[rel_name].ndim),
                unified[rel_name],
                budget,
                truncation=options.get("truncation", "triangular"),
                grid=options.get("grid", "midpoint"),
            )
            for rel_name in query.relations
        ]
        slot_pairs = query.slot_pairs(schemas)

        def estimate() -> float:
            return cosine_multijoin(synopses, slot_pairs)

        space = {r: s.num_coefficients for r, s in zip(query.relations, synopses)}
        return _QueryState(query, method, estimate, space)

    def _build_sketch(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        unified = self._unified(query)
        schemas = {r: self.relations[r].attributes for r in query.relations}
        joined = self._joined_axes(query)
        for rel_name in query.relations:
            if not joined[rel_name]:
                raise ValueError(
                    f"sketch methods need every relation joined; {rel_name} is not"
                )
        s1, s2 = split_budget(budget, options.get("num_medians"))
        # One sign-family seed per predicate, shared by both sides.
        slot_seed: dict[Slot, int] = {}
        for pred_idx, (slot_a, slot_b) in enumerate(query.slot_pairs(schemas)):
            slot_seed[slot_a] = slot_seed[slot_b] = self._seed * 7919 + pred_idx

        sketches = [
            self._sketch(
                rel_name,
                joined[rel_name],
                [unified[rel_name][ax] for ax in joined[rel_name]],
                [slot_seed[(rel_pos, ax)] for ax in joined[rel_name]],
                s1,
                s2,
            )
            for rel_pos, rel_name in enumerate(query.relations)
        ]

        if method == "skimmed_sketch":

            def estimate() -> float:
                return estimate_multijoin_size_skimmed(
                    sketches, threshold_factor=options.get("threshold_factor", 2.0)
                )

        else:

            def estimate() -> float:
                return sketch_multijoin(sketches)

        space = {r: s1 * s2 for r in query.relations}
        return _QueryState(query, method, estimate, space)

    def _build_sample(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        chain_axes = _chain_axes(query, self.relations)
        unified = self._unified(query)
        rng = np.random.default_rng(options.get("seed", self._seed))
        samples: list[BernoulliSample] = []
        for rel_name, axes in zip(query.relations, chain_axes):
            relation = self.relations[rel_name]
            # Budget = expected sample size; derive the Bernoulli rate from
            # the relation's current size.  For queries registered before
            # data arrives the relation is empty and the rate degenerates to
            # 1.0 — pass probability= explicitly for that (streaming) case.
            probability = options.get(
                "probability", min(1.0, budget / max(relation.count, budget))
            )
            domains = [unified[rel_name][ax] for ax in axes]
            # Replay history distributionally: binomial thinning per cell.
            history = _history(relation, axes, domains)
            sample = BernoulliSample.from_counts(history, probability, rng)
            maps = relation.index_maps(axes, domains)
            self._attach(relation, _SampleObserver(sample, maps, axes))
            samples.append(sample)

        def estimate() -> float:
            return estimate_chain_join_size_samples(samples)

        space = {r: budget for r in query.relations}
        return _QueryState(query, method, estimate, space)

    def _build_histogram(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        return self._build_axis_pair(query, method, budget, EquiWidthHistogram, histogram_join)

    def _build_wavelet(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        from ..wavelets.haar import HaarSynopsis
        from ..wavelets.haar import estimate_join_size as haar_join

        return self._build_axis_pair(query, method, budget, HaarSynopsis, haar_join)

    def _build_axis_pair(
        self,
        query: JoinQuery,
        method: str,
        budget: int,
        kind: type[EquiWidthHistogram] | type[HaarSynopsis],
        join: Callable[[Any, Any], float],
    ) -> _QueryState:
        """A single join read from one shared one-axis synopsis per side."""
        if query.num_joins != 1:
            raise ValueError(f"the {method} baseline supports single-join queries only")
        unified = self._unified(query)
        schemas = {r: self.relations[r].attributes for r in query.relations}
        sides = [(query.relations[rel_pos], axis) for rel_pos, axis in query.slot_pairs(schemas)[0]]
        synopses = [
            self._axis_synopsis(method, kind, rel_name, axis, unified[rel_name][axis], budget)
            for rel_name, axis in sides
        ]

        def estimate() -> float:
            return join(synopses[0], synopses[1])

        return _QueryState(query, method, estimate, {rel: budget for rel, _ in sides})

    def _build_partitioned(
        self, query: JoinQuery, method: str, budget: int, options: dict[str, Any]
    ) -> _QueryState:
        from ..sketches.partitioned import (
            PartitionedSketch,
            equi_mass_partition,
        )
        from ..sketches.partitioned import estimate_join_size as partitioned_join

        if query.num_joins != 1:
            raise ValueError(
                "the partitioned sketch supports single-join queries only"
            )
        unified = self._unified(query)
        schemas = {r: self.relations[r].attributes for r in query.relations}
        ((rel_a, ax_a), (rel_b, ax_b)) = query.slot_pairs(schemas)[0]

        # Dobra's a-priori distribution knowledge, made concrete: the pilot
        # is the combined marginal of both relations at registration time
        # (pass partitions= to tune the granularity).
        marginals = []
        for rel_pos, axis in ((rel_a, ax_a), (rel_b, ax_b)):
            rel_name = query.relations[rel_pos]
            relation = self.relations[rel_name]
            marginals.append(_history(relation, [axis], [unified[rel_name][axis]]))
        pilot = marginals[0] + marginals[1]
        num_partitions = options.get("partitions", 8)
        boundaries = equi_mass_partition(pilot, num_partitions)

        sketches = []
        for (rel_pos, axis), marginal in zip(((rel_a, ax_a), (rel_b, ax_b)), marginals):
            rel_name = query.relations[rel_pos]
            relation = self.relations[rel_name]
            sketch = PartitionedSketch.from_counts(
                marginal, boundaries, budget, seed=self._seed, family=self._family
            )
            (table,) = relation.index_maps([axis], [unified[rel_name][axis]])
            self._attach(relation, _AxisObserver(sketch, table, axis))
            sketches.append(sketch)

        def estimate() -> float:
            return partitioned_join(sketches[0], sketches[1])

        space = {
            query.relations[rel_a]: sketches[0].num_atomic_sketches,
            query.relations[rel_b]: sketches[1].num_atomic_sketches,
        }
        return _QueryState(query, method, estimate, space)


#: Short alias for deployments that think of it as *the* stream engine.
StreamEngine = ContinuousQueryEngine


# ---------------------------------------------------------------------- #
# observers
# ---------------------------------------------------------------------- #


class _CosineObserver(StreamObserver):
    """Feeds unified indices on ``axes`` into a cosine synopsis (Eqs. 3.4 / 3.5)."""

    # Structural: rebuilt from the query spec, not restored from checkpoints.
    _checkpoint_exempt = ("axes", "maps")

    def __init__(
        self, synopsis: CosineSynopsis, maps: Sequence[IndexMap], axes: Sequence[int]
    ) -> None:
        self.synopsis = synopsis
        self.maps = list(maps)
        self.axes = list(axes)

    def state_dict(self) -> dict[str, Any]:
        return self.synopsis.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.synopsis.load_state(state)

    def on_ops(self, relation: StreamRelation, rows: NDArray[Any], kind: OpKind) -> None:
        delta = relation.batch_delta(rows, kind).marginal(self.axes)
        update = self.synopsis.insert_batch if kind is OpKind.INSERT else self.synopsis.delete_batch
        update(delta.indices(self.maps), multiplicity=delta.counts)


class _SketchObserver(StreamObserver):
    """Feeds joined-attribute unified indices into an AGMS sketch."""

    # Structural: rebuilt from the query spec, not restored from checkpoints.
    _checkpoint_exempt = ("axes", "maps")

    def __init__(self, sketch: AGMSSketch, maps: Sequence[IndexMap], axes: Sequence[int]) -> None:
        self.sketch = sketch
        self.maps = list(maps)
        self.axes = list(axes)

    def state_dict(self) -> dict[str, Any]:
        return self.sketch.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.sketch.load_state(state)

    def on_ops(self, relation: StreamRelation, rows: NDArray[Any], kind: OpKind) -> None:
        delta = relation.batch_delta(rows, kind).marginal(self.axes)
        self.sketch.update_batch(
            delta.indices(self.maps), weight=delta.weight, multiplicity=delta.counts
        )


class _SampleObserver(StreamObserver):
    """Feeds joined-attribute unified indices, in chain order, into a Bernoulli sample."""

    # Structural: rebuilt from the query spec, not restored from checkpoints.
    _checkpoint_exempt = ("axes", "maps")

    def __init__(
        self, sample: BernoulliSample, maps: Sequence[IndexMap], axes: Sequence[int]
    ) -> None:
        self.sample = sample
        self.maps = list(maps)
        self.axes = list(axes)

    def state_dict(self) -> dict[str, Any]:
        return self.sample.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.sample.load_state(state)

    def check_delete(self) -> None:
        self.sample.delete(None)  # raises: documented limitation

    def on_ops(self, relation: StreamRelation, rows: NDArray[Any], kind: OpKind) -> None:
        if kind is OpKind.DELETE:
            self.check_delete()
            return
        indices = relation.batch_indices(rows)
        columns = [
            indices[:, ax] if table is None else table[indices[:, ax]]
            for table, ax in zip(self.maps, self.axes)
        ]
        self.sample.insert_batch(columns[0] if len(columns) == 1 else np.stack(columns, axis=1))


class _AxisObserver(StreamObserver):
    """Feeds one attribute's unified indices into a one-axis synopsis.

    The equi-width histogram, the Haar synopsis and the partitioned sketch
    each take them through ``update_indices(indices, weight, multiplicity)``.
    """

    # Structural: rebuilt from the query spec, not restored from checkpoints.
    _checkpoint_exempt = ("axis", "table")

    def __init__(
        self,
        synopsis: "EquiWidthHistogram | HaarSynopsis | PartitionedSketch",
        table: IndexMap,
        axis: int,
    ) -> None:
        self.synopsis = synopsis
        self.table = table
        self.axis = axis

    def state_dict(self) -> dict[str, Any]:
        return self.synopsis.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.synopsis.load_state(state)

    def on_ops(self, relation: StreamRelation, rows: NDArray[Any], kind: OpKind) -> None:
        delta = relation.batch_delta(rows, kind).marginal([self.axis])
        self.synopsis.update_indices(
            delta.indices([self.table])[:, 0], weight=delta.weight, multiplicity=delta.counts
        )


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #


def _quarantine(
    queries: Mapping[str, _QueryState],
    shared: dict[Hashable, _Share],
    registry: MetricsRegistry,
    relation: StreamRelation,
    observer: StreamObserver,
    exc: BaseException,
) -> bool:
    """Relation fault-handler hook: quarantine and account, never raise."""
    try:
        relation.detach(observer)
    except ValueError:  # already detached (e.g. fault during replay)
        pass
    method = getattr(observer, "stats_key", type(observer).__name__)
    reason = f"{type(exc).__name__}: {exc}"
    # The quarantined observer leaves the shared table (later
    # registrations build a fresh one) and degrades every query holding it.
    for key in [key for key, share in shared.items() if share.observer is observer]:
        del shared[key]
    for state in queries.values():
        if state.degraded is None and any(obs is observer for _, obs in state.attachments):
            state.degraded = reason
    registry.counter(
        "repro_observer_faults_total",
        "Observer exceptions absorbed by fault isolation, per method.",
        labelnames=("method",),
    ).labels(method).inc()
    registry.gauge(
        "repro_queries_degraded",
        "Registered queries currently degraded by a quarantined observer.",
    ).set(sum(state.degraded is not None for state in queries.values()))
    return True


def _shared_family(
    families: weakref.WeakValueDictionary[tuple[int, int, int], SignFamily],
    domain_size: int,
    num_functions: int,
    seed: int,
) -> SignFamily:
    """The live family of ``families`` for ``(domain_size, num_functions, seed)``, or a new one."""
    key = (domain_size, num_functions, seed)
    family = families.get(key)
    if family is None:
        family = families[key] = SignFamily(domain_size, num_functions, seed)
    return family


def _history(
    relation: StreamRelation, axes: Sequence[int], domains: Sequence[Domain]
) -> NDArray[Any]:
    """The relation's live counts on ``axes``, embedded into ``domains``."""
    marginal = _marginalize(relation.counts, keep_axes=axes)
    return embed_counts_tensor(marginal, [relation.domains[a] for a in axes], domains)


def _marginalize(tensor: NDArray[Any], keep_axes: Sequence[int]) -> NDArray[Any]:
    """Sum out all axes except ``keep_axes``; the result's axes follow ``keep_axes``."""
    tensor = np.asarray(tensor)
    drop = tuple(ax for ax in range(tensor.ndim) if ax not in set(keep_axes))
    kept = sorted(keep_axes)
    marginal = tensor.sum(axis=drop) if drop else tensor
    return np.transpose(marginal, [kept.index(ax) for ax in keep_axes])


def _chain_axes(
    query: JoinQuery, relations: Mapping[str, StreamRelation]
) -> list[list[int]]:
    """Each relation's joined axes in chain order: the grid of its sample.

    The sampling estimator's DP requires the paper's chain shape: predicate
    ``i`` joins relation ``i`` to relation ``i + 1``, in FROM order.
    Relation ``i``'s axes are the one joined to relation ``i - 1``, then
    the one joined to relation ``i + 1``.
    """
    schemas = {r: relations[r].attributes for r in query.relations}
    pairs = query.slot_pairs(schemas)
    if len(pairs) != len(query.relations) - 1 or any(
        (rel_a, rel_b) != (i, i + 1) for i, ((rel_a, _), (rel_b, _)) in enumerate(pairs)
    ):
        raise ValueError(
            "the sampling method supports chain queries (relation i joined "
            "to relation i+1, in FROM order) only"
        )
    axes: list[list[int]] = [[] for _ in query.relations]
    for i, ((_, ax_a), (_, ax_b)) in enumerate(pairs):
        axes[i].append(ax_a)
        axes[i + 1].append(ax_b)
    return axes
