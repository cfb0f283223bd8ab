"""The shard worker process: one ``ShardWorker`` behind a TCP socket.

:func:`shard_server_main` is the ``multiprocessing.Process`` entry point
the supervisor launches (a top-level function, so it survives the
``spawn`` start method's pickling).  Startup handshake:

1. bind a loopback listener on an ephemeral port,
2. send the port number back over the bootstrap pipe (the only use of
   the pipe — commands travel over the socket),
3. accept exactly one connection — the supervisor's — and serve
   length-prefixed command frames until shutdown.

The frames feed :func:`~repro.sharding.worker.serve_commands`, the
command loop the :class:`~repro.sharding.executor.ProcessExecutor` pipe
workers run too, so worker semantics are identical across transports.
A ``None`` frame is the graceful-shutdown request; transport failure on
the single supervisor connection ends the process (an orphaned worker
must not outlive its supervisor).
"""

from __future__ import annotations

import socket
from functools import partial
from typing import Any

from ..sharding.worker import ShardWorker, serve_commands
from .protocol import recv_frame, send_frame

__all__ = ["shard_server_main"]

#: Loopback only: fleet workers are an IPC detail of one machine, never
#: an externally reachable service.
_BIND_HOST = "127.0.0.1"


def shard_server_main(
    bootstrap: Any, shard_index: int, seed: int, telemetry: bool
) -> None:
    """Worker-process entry point: serve one shard over one connection."""
    worker = ShardWorker(shard_index, seed, telemetry)
    listener = socket.create_server((_BIND_HOST, 0))
    try:
        bootstrap.send(listener.getsockname()[1])
    finally:
        bootstrap.close()
    conn, _peer = listener.accept()
    listener.close()
    try:
        serve_commands(worker, partial(recv_frame, conn), partial(send_frame, conn))
    finally:
        conn.close()
