"""The per-shard command surface: one engine behind a picklable protocol.

A :class:`ShardWorker` owns one
:class:`~repro.streams.engine.StreamEngine` and exposes exactly the
operations a :class:`~repro.sharding.engine.ShardedStreamEngine` needs,
as plain methods taking and returning picklable values.  Executors call
these methods either directly (serial / thread executors, in-process) or
through :func:`serve_commands`, the one command loop behind both
out-of-process transports (the process executor's pipe and the fleet's
socket) — the worker itself cannot tell the difference, which is what
keeps every executor answer-identical.

Each worker's engine carries its own
:class:`~repro.obs.metrics.MetricsRegistry` with the shard index as a
``shard`` label on the relation/observer metrics, and checkpoints into
its own :class:`~repro.resilience.checkpoint.CheckpointStore` directory,
so a crashed shard restores independently of the rest of the fleet.

Distributed tracing: commands that do engine work (``ingest``,
``query_observers``) accept an optional W3C ``traceparent`` header.  The
worker's tracer :meth:`~repro.obs.tracing.Tracer.adopt`\\ s it before the
work runs, so the spans the engine records carry the coordinator's trace
id and parent under the coordinator's fan-out span — one fleet
operation, one trace.  :meth:`ShardWorker.drain_spans` hands the
buffered spans back as picklable values for the fleet's OTLP export.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, cast

import numpy as np
from numpy.typing import NDArray

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.tracing import SpanEvent
from ..resilience.checkpoint import CheckpointStore
from ..resilience.errors import CheckpointError
from ..streams.engine import StreamEngine
from ..streams.tuples import OpKind

__all__ = ["ShardWorker", "serve_commands"]


class ShardWorker:
    """One shard's engine plus the command methods executors invoke."""

    def __init__(self, shard_index: int, seed: int, telemetry: bool = True) -> None:
        self.shard_index = shard_index
        self.seed = seed
        self.telemetry_enabled = telemetry
        self.engine = self._fresh_engine()

    def _fresh_engine(self) -> StreamEngine:
        # Tracing on: shard spans adopt the coordinator's trace context
        # (see ingest/query_observers) and are collected by drain_spans.
        hub = Telemetry() if self.telemetry_enabled else Telemetry.disabled()
        return StreamEngine(seed=self.seed, telemetry=hub, shard=str(self.shard_index))

    def _adopt(self, traceparent: str | None) -> None:
        tracer = self.engine.telemetry.tracer
        if tracer is not None:
            tracer.adopt(traceparent)

    # ------------------------------------------------------------------ #
    # commands (everything below takes / returns picklable values)
    # ------------------------------------------------------------------ #

    def ping(self) -> int:
        return self.shard_index

    def create_relation(
        self, name: str, attributes: list[str], domain_specs: list[dict[str, Any]]
    ) -> None:
        from ..resilience.checkpoint import domain_from_spec

        self.engine.create_relation(
            name, attributes, [domain_from_spec(s) for s in domain_specs]
        )

    def register_query(self, name: str, spec: dict[str, Any]) -> None:
        self.engine.register_query_spec(name, spec)

    def unregister_query(self, name: str) -> None:
        self.engine.unregister_query(name)

    def ingest(
        self, relation: str, rows: NDArray[Any], kind: OpKind, traceparent: str | None = None
    ) -> int:
        self._adopt(traceparent)
        self.engine.ingest_batch(relation, rows, kind)
        return int(np.asarray(rows).shape[0])

    def query_observers(
        self, name: str, traceparent: str | None = None
    ) -> tuple[str | None, list[dict[str, Any]]]:
        """This shard's (degraded_reason, per-observer state dicts) for a query."""
        self._adopt(traceparent)
        tracer = self.engine.telemetry.tracer
        if tracer is not None:
            with tracer.span("estimate", query=name, phase="collect_state"):
                return self.engine.query_states(name)
        return self.engine.query_states(name)

    def drain_spans(self) -> list[SpanEvent]:
        """Hand over (and clear) this shard's buffered spans, oldest-first."""
        tracer = self.engine.telemetry.tracer
        if tracer is None:
            return []
        return list(tracer.drain())

    def relation_counts(self, name: str) -> NDArray[Any]:
        return np.array(self.engine.relations[name].counts)

    def relation_count(self, name: str) -> int:
        return int(self.engine.relations[name].count)

    def enable_fault_isolation(self, policy: str) -> None:
        self.engine.enable_fault_isolation(policy)

    def degraded_queries(self) -> dict[str, str]:
        return dict(self.engine.degraded_queries())

    def registry(self) -> MetricsRegistry:
        """The shard's metrics registry (a picklable value object)."""
        return cast(MetricsRegistry, self.engine.telemetry.registry)

    def stats_dict(self) -> dict[str, Any]:
        return dict(self.engine.stats().as_dict())

    # ------------------------------------------------------------------ #
    # checkpoint / recovery
    # ------------------------------------------------------------------ #

    def save_checkpoint(self, directory: str, keep: int = 3) -> str:
        """Rotate a checkpoint of this shard's engine into ``directory``."""
        store = CheckpointStore(directory, keep=keep)
        return str(store.save(self.engine))

    def load_latest_checkpoint(self, directory: str) -> str:
        """Replace this shard's engine with the newest checkpoint's state."""
        store = CheckpointStore(Path(directory))
        latest = store.latest()
        if latest is None:
            raise CheckpointError(f"no checkpoints found in {directory}")
        hub = Telemetry() if self.telemetry_enabled else Telemetry.disabled()
        self.engine = StreamEngine.load_checkpoint(
            latest, telemetry=hub, shard=str(self.shard_index)
        )
        return str(latest)


def serve_commands(
    worker: ShardWorker, recv: Callable[[], Any], send: Callable[[Any], None]
) -> None:
    """Apply ``(method, args, kwargs)`` commands from ``recv`` until shutdown.

    Each command's reply goes out through ``send`` as ``("ok", result)``
    or ``("err", "Type: message")``.  ``EOFError`` or ``OSError`` from
    ``recv`` means the coordinator is gone and ends the loop, as does a
    failed reply.  A ``None`` command is the graceful shutdown: it is
    acked with ``("ok", None)`` so the coordinator can join without
    racing the teardown, and a failed ack is ignored.
    """
    while True:
        try:
            message = recv()
        except (EOFError, OSError):
            return
        if message is None:
            try:
                send(("ok", None))
            except OSError:  # the coordinator closed without reading the ack
                pass
            return
        method, args, kwargs = message
        try:
            reply = ("ok", getattr(worker, method)(*args, **kwargs))
        except Exception as exc:
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            send(reply)
        except OSError:
            return
