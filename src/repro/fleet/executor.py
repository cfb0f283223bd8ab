"""``SocketExecutor``: the supervised worker fleet as a ShardExecutor.

The :class:`~repro.sharding.engine.ShardedStreamEngine` only ever talks
to the :class:`~repro.sharding.executor.ShardExecutor` protocol, and
every process fleet speaks to its workers through one
:class:`~repro.fleet.supervisor.ShardSupervisor`
(:class:`~repro.sharding.executor.SupervisedExecutor`).  This executor
is that supervisor with revives on: it journals, detects crashes and
revives, where the :class:`~repro.sharding.executor.ProcessExecutor`'s
supervisor marks a lost shard down.

Crash recovery is invisible at this layer by design: a revive happens
inside the supervisor's ``scatter`` and the caller just gets its result
(or a :class:`~repro.sharding.executor.ShardError` once the shard is
beyond recovery, which is what the engine's degradation policies key
on).
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry
from ..sharding.executor import SupervisedExecutor
from .supervisor import ShardSupervisor

__all__ = ["SocketExecutor"]


class SocketExecutor(SupervisedExecutor):
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
