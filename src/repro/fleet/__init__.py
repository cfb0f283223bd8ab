"""Supervised shard fleet: socket executor, supervisor, serve daemon.

This package keeps a sharded engine serving through worker crashes.
Every shard runs in its own process behind a
:class:`~repro.sharding.executor.WorkerProcess` handle: a socketpair
carrying the length-prefixed pickle frames of
:mod:`repro.sharding.worker`, with no listening socket.  The pieces,
bottom-up:

* :mod:`repro.fleet.supervisor` — :class:`ShardSupervisor`, the only
  code that speaks to worker processes (the ``process`` executor's
  too): it launches them, scatters every command's frames before it
  reads a reply, heartbeats them, and on crash restarts a worker from
  its latest checkpoint then replays the commands its
  :class:`~repro.resilience.journal.CommandJournal` holds since then.
* :mod:`repro.fleet.executor` — :class:`SocketExecutor`, the
  :class:`~repro.sharding.executor.ShardExecutor` that runs the
  supervisor with revives on, under the unchanged
  :class:`~repro.sharding.engine.ShardedStreamEngine`.
* :mod:`repro.fleet.serve` / :mod:`repro.fleet.client` — the
  ``repro-experiments serve`` asyncio front-end (newline-JSON protocol,
  bounded per-client backpressure, graceful-degradation query policies)
  and its small synchronous client.  The serve daemon is the fleet's
  only listening socket.

The supervision contract the chaos suite enforces: SIGKILL any shard at
any batch boundary and, after the supervised restart + journal replay,
every estimation method answers identically to an engine that never
crashed.

Every name is imported on first use: the executor and supervisor load
``multiprocessing`` and the serve daemon ``asyncio``, none of which a
client needs, and the daemon never needs the client.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..sharding.executor import WorkerGone
    from .client import FleetClient
    from .executor import SocketExecutor
    from .serve import FleetServer
    from .supervisor import ShardSupervisor

__getattr__ = lazy_exports(
    __name__,
    {
        ".client": ("FleetClient",),
        ".serve": ("FleetServer",),
        ".supervisor": ("ShardSupervisor",),
        ".executor": ("SocketExecutor",),
        "..sharding.executor": ("WorkerGone",),
    },
)

__all__ = [
    "FleetClient",
    "FleetServer",
    "ShardSupervisor",
    "SocketExecutor",
    "WorkerGone",
]
