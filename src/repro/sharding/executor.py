"""Shard executors: one interface, three placement strategies.

A :class:`ShardExecutor` owns ``num_shards``
:class:`~repro.sharding.worker.ShardWorker` instances and runs commands
against them:

* :class:`SerialExecutor` — workers in-process, commands run inline.
  Zero concurrency, zero overhead; the deterministic baseline and the
  default.
* :class:`ThreadExecutor` — one single-thread pool *per shard*, so each
  shard applies its commands in submission order (the ordering guarantee
  ingest correctness depends on) while different shards run
  concurrently.  Wins when the synopsis kernels spend their time inside
  numpy, which releases the GIL.
* :class:`ProcessExecutor` — one worker process per shard behind a
  pipe; commands and results are pickled.  True CPU parallelism at the
  cost of per-command IPC; worth it when per-batch synopsis work
  dominates (large budgets / batches).

Commands are ``(method_name, args, kwargs)`` against the worker's public
methods.  A worker exception is re-raised in the caller as
:class:`ShardError` naming the shard, for all three executors alike.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Sequence, cast

from .worker import ShardWorker, serve_commands

#: One shard's ``(args, kwargs)`` pair in a :meth:`ShardExecutor.scatter`.
CallSpec = tuple[tuple[Any, ...], dict[str, Any]]

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "ShardError",
    "ShardExecutor",
    "ThreadExecutor",
    "resolve_executor",
]


class ShardError(RuntimeError):
    """A command failed on one shard (carries the shard index)."""

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


class ShardExecutor:
    """Abstract executor: start workers, run commands, shut down."""

    num_shards: int = 0

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        raise NotImplementedError

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one command on one shard and return its result."""
        raise NotImplementedError

    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> list[Any]:
        """Run the same command on every shard; results in shard order."""
        return self.scatter(method, [(args, kwargs)] * self.num_shards)

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        """Run per-shard argument sets concurrently; ``None`` skips a shard.

        ``per_shard[i]`` is an ``(args, kwargs)`` pair for shard ``i``.
        Returns one result per shard (``None`` for skipped shards).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release workers (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _wrap_call(
    shard: int,
    worker: ShardWorker,
    method: str,
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
) -> Any:
    try:
        return getattr(worker, method)(*args, **kwargs)
    except ShardError:
        raise
    except Exception as exc:
        raise ShardError(shard, f"{type(exc).__name__}: {exc}") from exc


class SerialExecutor(ShardExecutor):
    """All shards in-process; commands run inline in shard order."""

    def __init__(self) -> None:
        self.workers: list[ShardWorker] = []

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        self.workers = [ShardWorker(i, seed, telemetry) for i in range(num_shards)]

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return _wrap_call(shard, self.workers[shard], method, args, kwargs)

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        results: list[Any] = [None] * self.num_shards
        for shard, item in enumerate(per_shard):
            if item is not None:
                args, kwargs = item
                results[shard] = self.call(shard, method, *args, **kwargs)
        return results


class ThreadExecutor(ShardExecutor):
    """One single-thread pool per shard: per-shard order, cross-shard overlap."""

    def __init__(self) -> None:
        self.workers: list[ShardWorker] = []
        self._pools: list[ThreadPoolExecutor] = []

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        self.workers = [ShardWorker(i, seed, telemetry) for i in range(num_shards)]
        self._pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"shard-{i}")
            for i in range(num_shards)
        ]

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        future = self._pools[shard].submit(
            _wrap_call, shard, self.workers[shard], method, args, kwargs
        )
        return future.result()

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        futures: list[Future[Any] | None] = []
        for shard, item in enumerate(per_shard):
            if item is None:
                futures.append(None)
                continue
            args, kwargs = item
            futures.append(
                self._pools[shard].submit(
                    _wrap_call, shard, self.workers[shard], method, args, kwargs
                )
            )
        return [f.result() if f is not None else None for f in futures]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        self.workers = []


def _process_worker_loop(
    conn: Any, shard_index: int, seed: int, telemetry: bool, inherited: tuple[Any, ...] = ()
) -> None:
    """Worker-process entry point: :func:`serve_commands` over the pipe.

    ``inherited`` carries the parent-side connections of *earlier* shards
    under the ``fork`` start method: the fork inherited those open file
    descriptors, and while this process holds them an earlier worker's
    death never surfaces as EOF to the coordinator.  Closing them first
    restores the one-writer-per-pipe invariant EOF detection needs.
    """
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed is fine
            pass
    serve_commands(ShardWorker(shard_index, seed, telemetry), conn.recv, conn.send)
    conn.close()


class ProcessExecutor(ShardExecutor):
    """One worker process per shard, commands over a duplex pipe.

    ``call_timeout`` bounds how long a command may go unanswered before
    it fails as :class:`ShardError` (``None`` = wait forever as long as
    the worker lives).  Independently of the timeout, a worker that
    *dies* mid-command is detected by liveness polling, so a crashed
    shard raises promptly instead of blocking the coordinator on a pipe
    no one will ever write to.
    """

    #: Liveness poll granularity while waiting on a reply (seconds).
    _POLL_INTERVAL = 0.05

    def __init__(
        self, mp_context: str | None = None, call_timeout: float | None = None
    ) -> None:
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(f"call_timeout must be positive, got {call_timeout}")
        self._ctx_name = mp_context
        self._call_timeout = call_timeout
        self._procs: list[Any] = []
        self._conns: list[Any] = []

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        name = self._ctx_name
        if name is None:
            name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(name)
        for i in range(num_shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            # Under fork, this child inherits every earlier parent-side
            # connection; hand them over so it closes them (see
            # _process_worker_loop).  Spawned children inherit nothing.
            inherited = tuple(self._conns) if name == "fork" else ()
            proc = ctx.Process(
                target=_process_worker_loop,
                args=(child_conn, i, seed, telemetry, inherited),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _send(
        self, shard: int, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> None:
        try:
            self._conns[shard].send((method, args, kwargs))
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(shard, f"worker process is gone: {exc}") from exc

    def _recv(self, shard: int) -> Any:
        conn = self._conns[shard]
        deadline = (
            None
            if self._call_timeout is None
            else time.monotonic() + self._call_timeout
        )
        while not conn.poll(self._POLL_INTERVAL):
            if not self._procs[shard].is_alive():
                # One last race-free check: the reply may have landed
                # between the poll and the liveness test.
                if conn.poll(0):
                    break
                raise ShardError(shard, "worker process died mid-command")
            if deadline is not None and time.monotonic() > deadline:
                raise ShardError(
                    shard, f"no reply within call_timeout={self._call_timeout}s"
                )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardError(shard, "worker process exited mid-command") from exc
        if status == "err":
            raise ShardError(shard, payload)
        return payload

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        self._send(shard, method, args, kwargs)
        return self._recv(shard)

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        active: list[int] = []
        for shard, item in enumerate(per_shard):
            if item is None:
                continue
            args, kwargs = item
            self._send(shard, method, args, kwargs)
            active.append(shard)
        results: list[Any] = [None] * self.num_shards
        errors: list[ShardError] = []
        for shard in active:
            try:
                results[shard] = self._recv(shard)
            except ShardError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - terminate resisted
                proc.kill()
                proc.join(timeout=1)
        self._procs = []
        self._conns = []


_EXECUTORS: dict[str, type[ShardExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(executor: str | ShardExecutor) -> ShardExecutor:
    """Coerce an executor name or instance.

    Names: ``serial`` / ``thread`` / ``process`` (this module) plus
    ``socket`` — the supervised network fleet, imported lazily because
    :mod:`repro.fleet` builds on this module.
    """
    if isinstance(executor, ShardExecutor):
        return executor
    if executor == "socket":
        from ..fleet.executor import SocketExecutor

        return cast(ShardExecutor, SocketExecutor())
    try:
        return _EXECUTORS[executor]()
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}; "
            f"choose from {sorted([*_EXECUTORS, 'socket'])}"
        ) from None
