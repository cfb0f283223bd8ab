"""``SocketExecutor``: the supervised worker fleet as a ShardExecutor.

The :class:`~repro.sharding.engine.ShardedStreamEngine` only ever talks
to the :class:`~repro.sharding.executor.ShardExecutor` protocol, so
moving shards out of process is entirely this adapter: ``call`` routes
one command through the :class:`~repro.fleet.supervisor.ShardSupervisor`
(which journals, detects crashes, and revives), and ``scatter`` fans
commands out on the :class:`~repro.sharding.executor.ShardLanes` the
:class:`~repro.sharding.executor.ThreadExecutor` uses too — the same
per-shard ordering guarantee, here overlapping worker round trips
instead of GIL releases.

Crash recovery is invisible at this layer by design: a revive happens
inside ``supervisor.command`` and the caller just gets its result (or a
:class:`~repro.sharding.executor.ShardError` once the shard is beyond
recovery, which is what the engine's degradation policies key on).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..obs.metrics import MetricsRegistry
from ..sharding.executor import CallSpec, ShardExecutor, ShardLanes
from .supervisor import ShardSupervisor

__all__ = ["SocketExecutor"]


class SocketExecutor(ShardExecutor):
    """One supervised worker process per shard, behind a socketpair each."""

    def __init__(
        self,
        supervisor: ShardSupervisor | None = None,
        restart: bool = True,
        max_restarts: int = 5,
        call_timeout: float | None = 30.0,
        heartbeat_interval: float | None = None,
        heartbeat_misses: int = 3,
        registry: MetricsRegistry | None = None,
        mp_context: str | None = None,
    ) -> None:
        if supervisor is None:
            supervisor = ShardSupervisor(
                restart=restart,
                max_restarts=max_restarts,
                call_timeout=call_timeout,
                heartbeat_interval=heartbeat_interval,
                heartbeat_misses=heartbeat_misses,
                registry=registry,
                mp_context=mp_context,
            )
        self.supervisor = supervisor
        self._lanes = ShardLanes(0, "fleet-shard")

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """Supervisor-side fleet metrics (restarts, heartbeats, health)."""
        return self.supervisor.registry

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        self.supervisor.start(num_shards, seed, telemetry)
        self._lanes = ShardLanes(num_shards, "fleet-shard")

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.supervisor.command(shard, method, args, kwargs)

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        return self._lanes.scatter(self.supervisor.command, method, per_shard)

    def close(self) -> None:
        self._lanes.close()
        self.supervisor.stop()
