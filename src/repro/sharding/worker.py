"""The per-shard command surface: one engine behind a picklable protocol.

A :class:`ShardWorker` owns one
:class:`~repro.streams.engine.StreamEngine` and exposes exactly the
operations a :class:`~repro.sharding.engine.ShardedStreamEngine` needs,
as plain methods taking and returning picklable values.  Executors call
these methods either directly (serial / thread executors, in-process) or
through :func:`serve_commands`, the one command loop every worker
process runs — the worker itself cannot tell the difference, which is
what keeps every executor answer-identical.

Out of process, commands and replies travel as *frames*
(:func:`send_frame` / :func:`recv_frame`): an 8-byte big-endian length
header followed by the pickled payload.  A clean or truncated close
raises :exc:`EOFError`; socket timeouts and transport failures surface
as :exc:`OSError`; a header beyond :data:`MAX_FRAME_BYTES` or a payload
that does not unpickle raises :exc:`ProtocolError`.  Pickle is safe
because both ends of every frame stream are processes of this codebase
joined by a ``socketpair`` — no listener, so nothing else can connect.

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

import pickle
import struct
from pathlib import Path
from typing import Any, Callable, cast

from numpy.typing import NDArray

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.tracing import SpanEvent
from ..resilience.checkpoint import CheckpointStore
from ..resilience.errors import CheckpointError
from ..streams.engine import StreamEngine
from ..streams.tuples import OpKind

# What every shard loads on first use: numpy.random (sign families and
# samples draw from it) and the bounds layer (bounded queries).  A
# coordinator imports this module before it forks its shards, so they
# inherit both instead of each importing them after the fork, alongside
# the other shards, on the same cores.
import numpy.random  # noqa: F401
from .. import bounds  # noqa: F401

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ShardWorker",
    "recv_frame",
    "send_frame",
    "serve_commands",
]

#: Refuse frames larger than this (a desynchronized stream shows up as a
#: garbage length; 1 GiB is far above any real command batch).
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">Q")


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
        self, relation: str, indices: NDArray[Any], kind: OpKind, traceparent: str | None = None
    ) -> int:
        """Apply a slice of the int64 domain indices the fleet's replica computed."""
        self._adopt(traceparent)
        self.engine.relations[relation].apply_located(indices, indices, kind)
        return len(indices)

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

    def load_checkpoint(self, path: str) -> str:
        """Replace this shard's engine with the state of checkpoint ``path``."""
        hub = Telemetry() if self.telemetry_enabled else Telemetry.disabled()
        self.engine = StreamEngine.load_checkpoint(
            path, telemetry=hub, shard=str(self.shard_index)
        )
        return path

    def load_latest_checkpoint(self, directory: str) -> str:
        """Replace this shard's engine with the newest checkpoint in ``directory``."""
        latest = CheckpointStore(Path(directory)).latest()
        if latest is None:
            raise CheckpointError(f"no checkpoints found in {directory}")
        return self.load_checkpoint(str(latest))


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


class ProtocolError(RuntimeError):
    """The byte stream is not a well-formed frame sequence."""


def send_frame(sock: Any, obj: Any) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    header = _HEADER.pack(len(payload))
    # One gathered write, no joined copy of the payload; a partial write
    # (a socket with a timeout is non-blocking underneath) is finished in
    # place.
    sent = sock.sendmsg((header, payload))
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent < len(header) + len(payload):
        sock.sendall(memoryview(payload)[sent - len(header) :])


def _recv_into(sock: Any, buffer: bytearray) -> None:
    view = memoryview(buffer)
    read = 0
    while read < len(buffer):
        count = sock.recv_into(view[read:])
        if not count:
            raise EOFError(f"connection closed mid-frame ({read}/{len(buffer)} bytes read)")
        read += count


def recv_frame(sock: Any) -> Any:
    """Read one frame and unpickle it.

    Raises :exc:`EOFError` on a clean close *between* frames too — the
    caller cannot tell "peer finished" from "peer died" at this layer,
    and both mean the other end is gone.
    """
    header = bytearray(_HEADER.size)
    _recv_into(sock, header)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header claims {length} bytes (> MAX_FRAME_BYTES); "
            "stream is desynchronized"
        )
    payload = bytearray(length)
    _recv_into(sock, payload)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # unpicklable payload = corrupt stream
        raise ProtocolError(f"frame payload failed to unpickle: {exc}") from exc
