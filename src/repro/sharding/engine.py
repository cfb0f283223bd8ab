"""The sharded continuous-query engine: partitioned ingest, merged answers.

:class:`ShardedStreamEngine` presents the same relation / query / answer
surface as :class:`~repro.streams.engine.StreamEngine`, but hash-
partitions every relation's rows across ``num_shards`` independent
engines (each with its own telemetry registry and checkpoint directory)
behind a :class:`~repro.sharding.executor.ShardExecutor`.

Every read is answered by a coordinator-side
:class:`~repro.streams.engine.StreamEngine`, so estimation modes, the
bound report, clamp metrics and the fault policy are the single engine's
own (see :mod:`repro.sharding.merge` for which methods go where):

* mergeable methods fetch each shard's observer states once, sum them,
  load the sums into a *template* engine registered over the same specs
  and seed (so sign families and geometry match), and read the template —
  one code path for equi-joins, multi-joins, range and band queries;
* coordinator methods (``sample``, ``partitioned_sketch``) read the
  coordinator *replica*, bit-identical to the unsharded engine;
* ground truth is the replica's exact tensors, lent to the template's
  relations for one read.

The replica is one engine built with the fleet: it holds every relation
and ingests every batch, in arrival order, before any shard sees it.  So
one engine maps, checks and counts each batch, and a batch it rejects
(an out-of-domain row, an over-delete, a delete a ``sample`` query
cannot take) reaches no shard; a delete batch costs one round trip.
Shards apply the replica's int64 domain indices, mapping no value again.

Per-shard checkpoints write one rotated
:class:`~repro.resilience.checkpoint.CheckpointStore` per shard plus a
fleet manifest; a crashed shard restores alone via
:meth:`ShardedStreamEngine.restore_shard` while the remaining shards
keep their live state.

Distributed tracing: the fleet owns a coordinator
:class:`~repro.obs.tracing.Tracer` whose ``ingest_batch`` / ``estimate``
spans pre-announce their span ids as W3C ``traceparent`` headers; the
headers ride the executor fan-out so every shard's engine spans join the
same trace, parented under the coordinator span that caused them.
:meth:`ShardedStreamEngine.drain_spans` collects the whole fleet's spans
(tagged per-shard) for :mod:`repro.obs.otel` export.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.tracing import SpanEvent, Tracer
from ..resilience.checkpoint import (
    CheckpointStore,
    domain_from_spec,
    domain_to_spec,
    write_atomic,
)
from ..resilience.deadletter import DeadLetterBuffer, ReplayReport
from ..resilience.errors import CheckpointError, DegradedQueryError
from ..streams.engine import StreamEngine, band_spec, join_spec, range_spec
from ..streams.queries import JoinQuery
from ..streams.tuples import OpKind
from .executor import ShardError, ShardExecutor, resolve_executor
from .merge import COORDINATOR_METHODS, merge_observer_states
from .partition import split_rows

__all__ = ["PartialAnswer", "ShardedStreamEngine"]

_MANIFEST_NAME = "fleet-manifest.json"
#: Version 3 always names the replica's checkpoint (version 2 named it only
#: when a coordinator query had built one; version 1 routed raw values).
_MANIFEST_VERSION = 3
_T = TypeVar("_T")


@dataclass(frozen=True)
class PartialAnswer:
    """A query answer that may be missing crashed shards' contributions.

    ``raw_value`` is the merged estimate over the surviving shards only;
    ``value`` scales it by ``total_shards / surviving_shards`` — a valid
    first-order correction because hash partitioning spreads every join
    key's tuples (and hence the additive per-shard contributions) evenly
    across shards in expectation.  ``degraded`` is True whenever any
    shard's contribution is missing, so callers can surface the widened
    uncertainty instead of silently serving a partial count.
    """

    value: float
    raw_value: float
    surviving_shards: int
    total_shards: int
    missing_shards: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.surviving_shards < self.total_shards

    def as_dict(self) -> dict[str, object]:
        return {
            "value": self.value,
            "raw_value": self.raw_value,
            "surviving_shards": self.surviving_shards,
            "total_shards": self.total_shards,
            "missing_shards": list(self.missing_shards),
            "degraded": self.degraded,
        }


class _RelationMeta:
    """Fleet-side schema record for one partitioned relation."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Any],
        partition_axis: int,
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        self.domains = tuple(domains)
        self.partition_axis = partition_axis


class _QueryMeta:
    """Fleet-side record of one registered query."""

    def __init__(self, name: str, spec: dict[str, Any], coordinator: bool) -> None:
        self.name = name
        self.spec = spec
        self.coordinator = coordinator


class ShardedStreamEngine:
    """Hash-partitioned fleet of stream engines with merged answers."""

    def __init__(
        self,
        num_shards: int = 4,
        seed: int = 0,
        executor: str | ShardExecutor = "serial",
        telemetry: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._seed = seed
        self._telemetry_enabled = telemetry
        #: Coordinator tracer: fan-out spans recorded here hand their
        #: ``traceparent`` to the shards, linking the fleet's spans into
        #: one trace per fleet operation.
        self.tracer: Tracer | None = Tracer() if telemetry else None
        self._executor = resolve_executor(executor)
        self._executor.start(num_shards, seed, telemetry)
        self._relations: dict[str, _RelationMeta] = {}
        self._queries: dict[str, _QueryMeta] = {}
        self._fault_policy: str | None = None
        #: Fleet-level dead-letter buffer (``None`` until
        #: :meth:`enable_dead_lettering`): malformed rows are quarantined
        #: *before* partitioning, so every shard only ever sees clean rows.
        self.dead_letters: DeadLetterBuffer | None = None
        #: Coordinator-side metrics (dead letters, and the answers of the
        #: template and the replica) merged into :meth:`fleet_metrics`
        #: alongside the shard registries.
        self._local_registry = MetricsRegistry()
        #: Template engine: schema-only relations + mergeable query
        #: registrations; merged shard states load into it and it answers.
        self._merge_engine = StreamEngine(
            seed=seed, telemetry=self._coordinator_telemetry(), shard="coordinator"
        )
        #: Replica: every relation and every batch, in arrival order; the
        #: fleet's exact counts and the home of the coordinator methods.
        self._coordinator = StreamEngine(
            seed=seed, telemetry=self._coordinator_telemetry(), shard="coordinator"
        )

    def _coordinator_telemetry(self) -> Telemetry:
        """The hub of the template and the replica: the fleet's local
        registry, no tracing (the fleet's own spans cover their reads)."""
        if not self._telemetry_enabled:
            return Telemetry.disabled()
        return Telemetry(tracing=False, registry=self._local_registry)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # relations
    # ------------------------------------------------------------------ #

    def create_relation(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Any],
        partition_by: str | None = None,
    ) -> None:
        """Declare a relation on every shard, partitioned by one attribute.

        ``partition_by`` names the routing attribute (default: the first).
        Merged answers do not depend on the choice — synopsis merges are
        linear — but routing on the join attribute keeps each join key's
        tuples co-located, the layout a future shard-local join needs.
        """
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        attributes = list(attributes)
        axis = 0 if partition_by is None else attributes.index(partition_by)
        self._merge_engine.create_relation(name, attributes, domains)
        specs = [domain_to_spec(d) for d in domains]
        self._executor.broadcast("create_relation", name, attributes, specs)
        # The shards count every row in the ingest metrics; the replica's
        # copy would count it twice.  Its observers and answers still record.
        self._coordinator.create_relation(name, attributes, domains).record_ingest = False
        self._relations[name] = _RelationMeta(name, attributes, domains, axis)

    def relation_names(self) -> list[str]:
        return list(self._relations)

    def total_count(self, relation_name: str) -> int:
        """Fleet-wide live tuple count of one relation."""
        if relation_name not in self._relations:
            raise KeyError(f"no relation named {relation_name!r}")
        return int(sum(self._executor.broadcast("relation_count", relation_name)))

    def merged_counts(self, relation_name: str) -> NDArray[Any]:
        """The relation's exact tensor: a copy of the replica's."""
        return np.array(self._coordinator.relations[relation_name].counts)

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def ingest_batch(
        self,
        relation_name: str,
        rows: Sequence[Sequence[Any]] | NDArray[Any],
        kind: OpKind = OpKind.INSERT,
    ) -> None:
        """Partition a same-kind batch by routing hash and fan it out.

        The replica maps the batch to domain indices and applies it first,
        as one engine: a batch one engine rejects raises its error there,
        before any shard sees it.  The indices route on their partition
        column, and each shard applies its slice of them as they are.
        Per-shard slices preserve the batch's relative order, so shard
        state is independent of batch framing.

        With :meth:`enable_dead_lettering` active, malformed rows are
        diverted into :attr:`dead_letters` *before* partitioning — the
        replica and the shards only ever ingest clean rows, so a poison
        row cannot crash a remote worker.
        """
        meta = self._relations[relation_name]
        relation = self._coordinator.relations[relation_name]
        if self.dead_letters is None:
            arr = relation.rows_array(rows)
            idx = relation.indices_of_rows(arr)
        else:
            arr, idx = self.dead_letters.divert(relation, rows, kind, self._local_registry)
        if arr.shape[0] == 0:
            return
        span = (
            self.tracer.propagated_span(
                "ingest_batch", count=arr.shape[0], relation=relation_name, kind=kind.name
            )
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            relation.apply_located(arr, idx, kind)
            parts = split_rows(idx, idx[:, meta.partition_axis], self.num_shards)
            self._executor.scatter(
                "ingest",
                [
                    ((relation_name, part, kind), {"traceparent": traceparent})
                    if part.shape[0]
                    else None
                    for part in parts
                ],
            )

    def insert(self, relation_name: str, values: Sequence[Any]) -> None:
        self.ingest_batch(relation_name, [tuple(values)], OpKind.INSERT)

    def delete(self, relation_name: str, values: Sequence[Any]) -> None:
        self.ingest_batch(relation_name, [tuple(values)], OpKind.DELETE)

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
        """Register a continuous join-COUNT query across the fleet.

        Mergeable methods register on every shard (each replays its own
        slice of history); coordinator methods register on the replica.
        """
        self.register_query_spec(name, join_spec(query, method, budget, options))

    def register_range_query(
        self, name: str, relation_name: str, attribute: str, low: Any, high: Any,
        budget: int = 200, **options: Any,
    ) -> None:
        """Register a range-COUNT query (cosine marginal; always mergeable)."""
        spec = range_spec(relation_name, attribute, low, high, budget, options)
        self.register_query_spec(name, spec)

    def register_band_query(
        self, name: str, left: tuple[str, str], right: tuple[str, str],
        width: int, budget: int = 200, **options: Any,
    ) -> None:
        """Register a band-join COUNT query (cosine marginals; mergeable)."""
        self.register_query_spec(name, band_spec(left, right, width, budget, options))

    def register_query_spec(self, name: str, spec: dict[str, Any]) -> None:
        """Register a query from its serialized spec (the wire/manifest form).

        Accepts the same ``{"kind": "join" | "range" | "band", ...}``
        dictionaries the fleet manifest and the serve daemon's newline-JSON
        protocol carry.  A join whose method is order dependent
        (:data:`~repro.sharding.merge.COORDINATOR_METHODS`) registers on
        the replica; any other spec registers on the template, which
        validates it before any shard sees it, then on every shard.  A
        shard that refuses it fails the registration whole: the template
        and every shard drop the name, so no engine of the fleet holds a
        query the fleet does not list.
        """
        if name in self._queries:
            raise ValueError(f"query {name!r} already registered")
        spec = dict(spec)
        coordinator = (
            spec.get("kind") == "join" and spec.get("method") in COORDINATOR_METHODS
        )
        if coordinator:
            self._coordinator.register_query_spec(name, spec)
        else:
            self._merge_engine.register_query_spec(name, spec)
            try:
                self._executor.broadcast("register_query", name, spec)
            except ShardError:
                self._merge_engine.unregister_query(name)
                for shard in range(self.num_shards):
                    with suppress(ShardError):
                        self._executor.call(shard, "unregister_query", name)
                raise
        self._queries[name] = _QueryMeta(name, spec, coordinator)

    def unregister_query(self, name: str) -> None:
        meta = self._queries.pop(name, None)
        if meta is None:
            raise KeyError(f"no query named {name!r}")
        if meta.coordinator:
            self._coordinator.unregister_query(name)
        else:
            self._merge_engine.unregister_query(name)
            self._executor.broadcast("unregister_query", name)

    def query_names(self) -> list[str]:
        return list(self._queries)

    # ------------------------------------------------------------------ #
    # answers
    # ------------------------------------------------------------------ #

    def _read(self, name: str, read: Callable[[StreamEngine], _T]) -> _T:
        """Apply ``read`` to the engine answering ``name``, its state current.

        The replica is always current.  For a mergeable query, every
        shard's observer states are fetched once, summed and loaded into
        the template; a query degraded on any shard is loaded degraded
        instead, with that shard's reason, so the template's fault
        policy decides the read; only ``"exact"`` borrows the replica's
        ground truth of the query's relations.
        """
        meta = self._queries[name]
        if meta.coordinator:
            return read(self._coordinator)
        method = str(meta.spec.get("method", meta.spec.get("kind", "")))
        span = (
            self.tracer.propagated_span("estimate", query=name, method=method)
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            replies = self._executor.broadcast("query_observers", name, traceparent)
            degraded = [(shard, reason) for shard, (reason, _) in enumerate(replies) if reason]
            if not degraded:
                self._load_merged_states(name, [states for _, states in replies])
                return read(self._merge_engine)
            shard, reason = degraded[0]
            self._merge_engine.load_query_states(
                name, [], degraded=f"shard {shard}: {reason}"
            )
            exact = self._fault_policy == "exact"
            with self._merged_truth(name) if exact else nullcontext():
                return read(self._merge_engine)

    def _load_merged_states(self, name: str, shard_states: list[list[Any]]) -> None:
        """Sum each observer's per-shard states into the template's query."""
        merged = [merge_observer_states(list(states)) for states in zip(*shard_states)]
        self._merge_engine.load_query_states(name, merged)

    @contextmanager
    def _merged_truth(self, name: str) -> Iterator[None]:
        """Lend the template the replica's exact tensors of ``name``'s relations.

        The template never ingests, so its relations hold zeros; they get
        them back after the read, leaving the template no tensor and no
        stale truth for a later registration to replay.
        """
        relations = self._merge_engine.relations
        spec = self._queries[name].spec
        if spec["kind"] == "join":
            names = list(spec["relations"])
        elif spec["kind"] == "range":
            names = [spec["relation"]]
        else:
            names = [spec["left"][0], spec["right"][0]]
        empty = {rel: relations[rel].counts for rel in names}
        try:
            for rel in empty:
                relations[rel].counts = self._coordinator.relations[rel].counts
            yield
        finally:
            for rel, counts in empty.items():
                relations[rel].counts = counts

    def answer(self, name: str) -> float:
        """Current fleet estimate of a registered query.

        A query degraded on *any* shard follows the
        :meth:`enable_fault_isolation` policy (raise / NaN / exact),
        leaving every other query untouched.
        """
        return float(self._read(name, lambda engine: engine.answer(name)))

    def answers(self) -> dict[str, float]:
        return {name: self.answer(name) for name in self._queries}

    def answer_partial(self, name: str) -> PartialAnswer:
        """Answer from whichever shards still respond, flagged and scaled.

        The graceful-degradation path for fleets that have lost shards
        beyond recovery (a :class:`~repro.fleet.supervisor.ShardSupervisor`
        past ``max_restarts``, or any executor raising
        :class:`~repro.sharding.executor.ShardError`): each shard is asked
        individually, unreachable or per-query-degraded shards are
        dropped, and the survivors' merged estimate is scaled by
        ``total / surviving`` (see :class:`PartialAnswer` for why that is
        the right first-order correction under hash partitioning).

        Coordinator-method queries answer from the replica, which no
        shard crash can touch, so they come back undegraded.  A query
        with *no* surviving shard raises
        :class:`~repro.resilience.errors.DegradedQueryError`.
        """
        meta = self._queries[name]
        if meta.coordinator:
            value = self.answer(name)
            return PartialAnswer(value, value, self.num_shards, self.num_shards)
        method = str(meta.spec.get("method", meta.spec.get("kind", "")))
        span = (
            self.tracer.propagated_span(
                "estimate_partial", query=name, method=method
            )
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            survivors: list[Any] = []
            missing: list[int] = []
            for shard in range(self.num_shards):
                try:
                    reason, states = self._executor.call(
                        shard, "query_observers", name, traceparent
                    )
                except ShardError:
                    missing.append(shard)
                    continue
                if reason:
                    # Answered, but this query is quarantined on that
                    # shard: its synopsis state is unusable, same as lost.
                    missing.append(shard)
                else:
                    survivors.append(states)
            if not survivors:
                raise DegradedQueryError(name, "no surviving shards")
            self._load_merged_states(name, survivors)
            raw = float(self._merge_engine.answer(name))
        scale = self.num_shards / len(survivors)
        return PartialAnswer(
            raw * scale, raw, len(survivors), self.num_shards, tuple(missing)
        )

    def estimate(self, name: str, mode: str = "answer") -> float:
        """Answer one query in a chosen estimation mode (fleet surface).

        The modes, their errors and the fault policy are those of
        :meth:`repro.streams.engine.StreamEngine.estimate`, run on the
        merged state.
        """
        return float(self._read(name, lambda engine: engine.estimate(name, mode)))

    def bound_report(self, name: str) -> dict[str, Any] | None:
        """Bound metadata for one query, or ``None`` when bounds are off.

        :meth:`repro.streams.engine.StreamEngine.bound_report` run on the
        merged state.  Degree statistics are exact ``int64`` vectors that
        sum across shards (see :mod:`repro.sharding.merge`), so the fleet
        bound is *identical* to a single unsharded engine's.  Whether
        bounds are on is read from the spec, so a bound-less query costs
        no state fetch.
        """
        if not self._queries[name].spec.get("options", {}).get("bounds"):
            return None
        return self._read(name, lambda engine: engine.bound_report(name))

    def exact_answer(self, name: str) -> float:
        """Ground-truth answer from the replica's exact tensors."""
        if self._queries[name].coordinator:
            return float(self._coordinator.exact_answer(name))
        with self._merged_truth(name):
            return float(self._merge_engine.exact_answer(name))

    # ------------------------------------------------------------------ #
    # fault isolation
    # ------------------------------------------------------------------ #

    def enable_fault_isolation(self, policy: str = "raise") -> None:
        """Quarantine throwing observers shard-locally (fleet-wide policy).

        The template takes (and validates) the policy too, so a query
        degraded on any shard reads as a degraded query of one engine.
        The replica takes it as well, so a delete batch that a ``sample``
        query cannot take quarantines that query instead of being refused.
        """
        self._merge_engine.enable_fault_isolation(policy)
        self._coordinator.enable_fault_isolation(policy)
        self._fault_policy = policy
        self._executor.broadcast("enable_fault_isolation", policy)

    def enable_dead_lettering(self, capacity: int = 1024) -> DeadLetterBuffer:
        """Quarantine malformed rows fleet-side instead of raising.

        Validation runs on the coordinator before partitioning (see
        :meth:`ingest_batch`); rejected rows land in the returned
        :class:`~repro.resilience.deadletter.DeadLetterBuffer` (also
        available as :attr:`dead_letters`), counted per relation and
        reason in ``repro_ingest_dead_letters_total``.
        """
        self.dead_letters = DeadLetterBuffer(capacity)
        return self.dead_letters

    def replay_dead_letters(self) -> ReplayReport:
        """Re-validate and re-ingest every buffered dead letter.

        Rows that are now clean flow through the normal partitioned
        ingest; rows that are still malformed land back in
        :attr:`dead_letters`.  Raises ``ValueError`` when dead-lettering
        was never enabled.
        """
        if self.dead_letters is None:
            raise ValueError(
                "dead-lettering is not enabled (call enable_dead_lettering() first)"
            )
        return self.dead_letters.replay(self)

    def degraded_queries(self) -> dict[str, dict[int, str]]:
        """Degraded queries mapped to ``{shard_index: reason}``."""
        out: dict[str, dict[int, str]] = {}
        for shard, shard_map in enumerate(self._executor.broadcast("degraded_queries")):
            for query, reason in shard_map.items():
                out.setdefault(query, {})[shard] = reason
        for query, reason in self._coordinator.degraded_queries().items():
            out.setdefault(query, {})[-1] = reason
        return out

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def fleet_metrics(self) -> MetricsRegistry:
        """All shard registries (plus the coordinator side's) merged into one.

        Unlabelled counters sum into fleet totals; ``shard``-labelled
        families keep one child per shard, the layout fleet dashboards
        aggregate over (see :meth:`repro.obs.metrics.MetricsRegistry.merge`).
        """
        merged = MetricsRegistry()
        for registry in self._executor.broadcast("registry"):
            merged.merge(registry)
        merged.merge(self._local_registry)
        if self._executor.supervisor is not None:
            merged.merge(self._executor.supervisor.registry)
        return merged

    def shard_stats(self) -> list[dict[str, Any]]:
        """Each shard's ``EngineStats.as_dict()`` snapshot, in shard order."""
        return self._executor.broadcast("stats_dict")

    def drain_spans(self) -> list[tuple[dict[str, str], list[SpanEvent]]]:
        """The whole fleet's undelivered spans, grouped by origin.

        Returns ``(resource attributes, events)`` groups — the
        coordinator tracer's fan-out spans under ``shard="coordinator"``,
        then each shard's engine spans under its index — exactly the
        shape :class:`repro.obs.otel.OtelPushLoop` exports, so every span
        is shipped once with the resource telling collectors where it
        ran.  Empty groups are omitted.
        """
        groups: list[tuple[dict[str, str], list[SpanEvent]]] = []
        if self.tracer is not None:
            events = self.tracer.drain()
            if events:
                groups.append(({"shard": "coordinator"}, events))
        for shard, events in enumerate(self._executor.broadcast("drain_spans")):
            if events:
                groups.append(({"shard": str(shard)}, events))
        return groups

    # ------------------------------------------------------------------ #
    # checkpoint / recovery
    # ------------------------------------------------------------------ #

    @staticmethod
    def _shard_dir(directory: str | Path, shard: int) -> Path:
        return Path(directory) / f"shard-{shard:02d}"

    def save_checkpoints(self, directory: str | Path, keep: int = 3) -> list[str]:
        """Checkpoint every shard and the replica independently.

        Each shard rotates its own ``shard-NN/checkpoint-*.ckpt`` store,
        and the replica its ``coordinator/`` one.  A JSON fleet manifest,
        written last and atomically, records the partitioning and query
        layout and names the file each store wrote: it commits the save,
        so a failed write leaves the previous save for :meth:`restore`
        while the stores keep its files.  Returns the written checkpoint
        paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = self._executor.scatter(
            "save_checkpoint",
            [
                ((str(self._shard_dir(directory, shard)),), {"keep": keep})
                for shard in range(self.num_shards)
            ],
        )
        coordinator = CheckpointStore(directory / "coordinator", keep=keep).save(
            self._coordinator
        )
        manifest = {
            "version": _MANIFEST_VERSION,
            "num_shards": self.num_shards,
            "seed": self._seed,
            "fault_policy": self._fault_policy,
            "dead_letter_capacity": (
                None if self.dead_letters is None else self.dead_letters.capacity
            ),
            "shard_checkpoints": [Path(path).name for path in paths],
            "coordinator_checkpoint": coordinator.name,
            "relations": [
                {
                    "name": meta.name,
                    "attributes": list(meta.attributes),
                    "domains": [domain_to_spec(d) for d in meta.domains],
                    "partition_axis": meta.partition_axis,
                }
                for meta in self._relations.values()
            ],
            "queries": [
                {"name": meta.name, "spec": meta.spec, "coordinator": meta.coordinator}
                for meta in self._queries.values()
            ],
        }
        write_atomic(directory / _MANIFEST_NAME, json.dumps(manifest, indent=2).encode())
        return [*paths, str(coordinator)]

    def restore_shard(self, shard: int, directory: str | Path) -> str:
        """Reload one crashed shard from its own newest checkpoint.

        Only that shard's engine is replaced; every other shard keeps its
        live state, so recovery cost is one shard's checkpoint, not the
        fleet's.  The replica is not touched either: a shard restored from
        an older checkpoint moves no exact count and no coordinator answer.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        return str(
            self._executor.call(
                shard, "load_latest_checkpoint", str(self._shard_dir(directory, shard))
            )
        )

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        executor: str | ShardExecutor = "serial",
        telemetry: bool = True,
    ) -> "ShardedStreamEngine":
        """Rebuild a fleet from :meth:`save_checkpoints` output.

        The manifest recreates the fleet layout (shard count, partition
        axes, query specs), and each shard and the replica load the
        checkpoint file it names.  A manifest that cannot be read, has
        another version, lacks a field or names a file that is gone
        raises :class:`~repro.resilience.errors.CheckpointError` before
        any shard starts.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read fleet manifest {manifest_path}: {exc}"
            ) from exc
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if version != _MANIFEST_VERSION:
            raise CheckpointError(
                f"{manifest_path} has unsupported fleet manifest version {version!r} "
                f"(this build reads {_MANIFEST_VERSION})"
            )
        try:
            num_shards = int(manifest["num_shards"])
            seed = int(manifest["seed"])
            relations = [
                _RelationMeta(
                    rel["name"],
                    rel["attributes"],
                    [domain_from_spec(spec) for spec in rel["domains"]],
                    int(rel["partition_axis"]),
                )
                for rel in manifest["relations"]
            ]
            queries = [
                _QueryMeta(entry["name"], entry["spec"], entry["coordinator"])
                for entry in manifest["queries"]
            ]
            shard_names = list(manifest["shard_checkpoints"])
            coordinator_name = str(manifest["coordinator_checkpoint"])
            fault_policy = manifest["fault_policy"]
            dead_letter_capacity = manifest["dead_letter_capacity"]
        except KeyError as exc:
            raise CheckpointError(
                f"fleet manifest {manifest_path} is missing field {exc.args[0]!r}"
            ) from exc
        files = [cls._shard_dir(directory, s) / name for s, name in enumerate(shard_names)]
        files.append(directory / "coordinator" / coordinator_name)
        missing = [str(path) for path in files if not path.is_file()]
        if missing or len(shard_names) != num_shards:
            raise CheckpointError(
                f"fleet manifest {manifest_path} names checkpoints that are gone ({missing}) "
                f"or not one per shard ({len(shard_names)} for {num_shards} shards)"
            )
        engine = cls(num_shards=num_shards, seed=seed, executor=executor, telemetry=telemetry)
        for meta in relations:
            engine._merge_engine.create_relation(meta.name, meta.attributes, meta.domains)
            engine._relations[meta.name] = meta
        engine._executor.scatter("load_checkpoint", [((str(p),), {}) for p in files[:num_shards]])
        engine._coordinator = StreamEngine.load_checkpoint(
            files[-1], telemetry=engine._coordinator_telemetry(), shard="coordinator"
        )
        for relation in engine._coordinator.relations.values():
            relation.record_ingest = False  # as in create_relation
        for query in queries:
            if not query.coordinator:
                engine._merge_engine.register_query_spec(query.name, query.spec)
            engine._queries[query.name] = query
        if fault_policy is not None:
            engine.enable_fault_isolation(fault_policy)
        if dead_letter_capacity is not None:
            # The buffer's *contents* are not checkpointed (letters are a
            # quarantine, not state); only the guard itself is restored.
            engine.enable_dead_lettering(int(dead_letter_capacity))
        return engine

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStreamEngine(shards={self.num_shards}, "
            f"executor={type(self._executor).__name__}, "
            f"relations={len(self._relations)}, queries={len(self._queries)})"
        )
