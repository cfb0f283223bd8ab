"""Shard executors: one interface, in-process shards or one process fleet.

A :class:`ShardExecutor` owns ``num_shards`` shards, each one
:class:`~repro.sharding.worker.ShardWorker`, and runs commands against
them:

* :class:`SerialExecutor` — workers in-process, commands run inline.
  Zero concurrency, zero overhead; the deterministic baseline and the
  default.
* :class:`ThreadExecutor` — one single-thread pool *per shard*, so each
  shard applies its commands in submission order (the ordering guarantee
  ingest correctness depends on) while different shards run
  concurrently.  Wins when the synopsis kernels spend their time inside
  numpy, which releases the GIL.
* :class:`ProcessExecutor` and
  :class:`~repro.fleet.executor.SocketExecutor` — one worker process per
  shard, spoken to in pickled frames by a
  :class:`~repro.fleet.supervisor.ShardSupervisor`; only the socket
  executor's revives a lost worker.  True CPU parallelism at the cost of
  per-command IPC; worth it when per-batch synopsis work dominates
  (large budgets / batches).

Commands are ``(method_name, args, kwargs)`` against the worker's public
methods.  A worker exception is re-raised in the caller as
:class:`ShardError` naming the shard, for every executor alike.

:class:`WorkerProcess` is the one handle that starts, speaks to and
reaps a shard process; the supervisor holds one per shard.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence, cast

from .worker import ProtocolError, ShardWorker, recv_frame, send_frame, serve_commands

if TYPE_CHECKING:
    from ..fleet.supervisor import ShardSupervisor

#: One shard's ``(args, kwargs)`` pair in a :meth:`ShardExecutor.scatter`.
CallSpec = tuple[tuple[Any, ...], dict[str, Any]]

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "ShardError",
    "ShardExecutor",
    "SupervisedExecutor",
    "ThreadExecutor",
    "WorkerGone",
    "WorkerProcess",
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
    #: The supervisor behind a process fleet's workers; ``None`` in process.
    supervisor: ShardSupervisor | None = None

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


class SerialExecutor(ShardExecutor):
    """All shards in-process; commands run inline in shard order."""

    def __init__(self) -> None:
        self.workers: list[ShardWorker] = []

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        self.workers = [ShardWorker(i, seed, telemetry) for i in range(num_shards)]

    def _run(
        self, shard: int, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> Any:
        try:
            return getattr(self.workers[shard], method)(*args, **kwargs)
        except ShardError:
            raise
        except Exception as exc:
            raise ShardError(shard, f"{type(exc).__name__}: {exc}") from exc

    def _submit(
        self, shard: int, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> Callable[[], Any]:
        """Start one command; calling the result waits for it (here: runs it)."""
        return partial(self._run, shard, method, args, kwargs)

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._submit(shard, method, args, kwargs)()

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        pending = {
            shard: self._submit(shard, method, *item)
            for shard, item in enumerate(per_shard)
            if item is not None
        }
        # Every named shard runs before the first error in shard order is
        # raised, so no shard is skipped or left mid-command.
        results: list[Any] = [None] * self.num_shards
        errors: list[ShardError] = []
        for shard, result in pending.items():
            try:
                results[shard] = result()
            except ShardError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results


class ThreadExecutor(SerialExecutor):
    """In-process shards, one single-thread pool each.

    Each shard applies its commands in submission order, the ordering
    ingest correctness depends on, while different shards run at once.
    """

    def __init__(self) -> None:
        super().__init__()
        self._pools: list[ThreadPoolExecutor] = []

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        super().start(num_shards, seed, telemetry)
        self._pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"shard-{i}")
            for i in range(num_shards)
        ]

    def _submit(
        self, shard: int, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]
    ) -> Callable[[], Any]:
        return self._pools[shard].submit(self._run, shard, method, args, kwargs).result

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        self.workers = []


class WorkerGone(ConnectionError):
    """Transport-level loss of a shard worker (crash, reset, or timeout)."""

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard} worker gone: {message}")
        self.shard = shard
        self.reason = message


#: Serializes socketpair creation, fork and the parent's close of the
#: child end, so no worker forked from another thread inherits an end it
#: does not know to close (an extra holder hides a peer's death as EOF).
_SPAWN_LOCK = threading.Lock()


def _worker_main(
    sock: socket.socket, shard: int, seed: int, telemetry: bool, inherited: list[Any]
) -> None:
    """Worker-process entry point: :func:`serve_commands` over frames.

    ``inherited`` holds the coordinator-side socket ends a ``fork``
    copied into this process, this worker's own included.  Closing them
    leaves the coordinator the only holder, so its exit (even a SIGKILL)
    reads here as EOF and the worker exits instead of outliving it.
    """
    for end in inherited:
        end.close()
    worker = ShardWorker(shard, seed, telemetry)
    try:
        serve_commands(worker, partial(recv_frame, sock), partial(send_frame, sock))
    finally:
        sock.close()


class WorkerProcess:
    """One shard worker process and the socketpair end that speaks to it.

    The single place a shard process is started, spoken to and torn
    down; the fleet's supervisor holds one per shard.  Any transport
    failure — EOF, ``OSError`` (a ``call_timeout`` expiry included) or a
    malformed frame — destroys the process and raises
    :class:`WorkerGone`; the handle then stays lost, so a late reply can
    never be read as the answer to a later command.  An
    ``("err", message)`` reply raises :class:`ShardError`.
    """

    def __init__(
        self, shard: int, seed: int, telemetry: bool, ctx: Any, call_timeout: float | None
    ) -> None:
        self.shard = shard
        self._seed = seed
        self._telemetry = telemetry
        self._ctx = ctx
        self._call_timeout = call_timeout
        self._proc: Any = None
        self._sock: socket.socket | None = None
        self._gone = "not running"

    @classmethod
    def start_all(
        cls,
        num_shards: int,
        seed: int,
        telemetry: bool,
        mp_context: str | None,
        call_timeout: float | None,
    ) -> list[WorkerProcess]:
        """One spawned worker per shard; ``mp_context=None`` = fork where available."""
        if mp_context is None:
            mp_context = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(mp_context)
        workers: list[WorkerProcess] = []
        for shard in range(num_shards):
            worker = cls(shard, seed, telemetry, ctx, call_timeout)
            worker.spawn(workers)
            workers.append(worker)
        return workers

    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    def spawn(self, others: Sequence[WorkerProcess] = ()) -> None:
        """Start the process; ``others`` are the sibling handles a fork copies."""
        with _SPAWN_LOCK:
            parent, child = socket.socketpair()
            inherited: list[Any] = []
            if self._ctx.get_start_method() == "fork":
                inherited = [parent, *(w._sock for w in others if w._sock is not None)]
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child, self.shard, self._seed, self._telemetry, inherited),
                daemon=True,
                name=f"repro-shard-{self.shard}",
            )
            try:
                proc.start()
            except BaseException:
                parent.close()
                raise
            finally:
                child.close()
        parent.settimeout(self._call_timeout)
        self._proc, self._sock = proc, parent

    def send(self, message: Any) -> None:
        """Write one frame to the worker."""
        if self._sock is None:
            raise WorkerGone(self.shard, self._gone)
        try:
            send_frame(self._sock, message)
        except (OSError, ProtocolError) as exc:
            self._lost(exc)

    def recv(self) -> Any:
        """The worker's next reply."""
        if self._sock is None:
            raise WorkerGone(self.shard, self._gone)
        try:
            status, payload = recv_frame(self._sock)
        except (EOFError, OSError, ProtocolError) as exc:
            self._lost(exc)
        if status == "err":
            raise ShardError(self.shard, payload)
        return payload

    def call(self, method: str, args: Sequence[Any], kwargs: dict[str, Any]) -> Any:
        """One command round trip."""
        self.send((method, tuple(args), dict(kwargs)))
        return self.recv()

    def _lost(self, exc: BaseException) -> NoReturn:
        if isinstance(exc, TimeoutError):
            reason = f"no reply within call_timeout={self._call_timeout}s"
        else:
            reason = f"{type(exc).__name__}: {exc}"
        self._gone = reason
        self.destroy()
        raise WorkerGone(self.shard, reason) from exc

    def stop(self) -> None:
        """Graceful shutdown: the ``None`` command and its ack, then reap."""
        if self._sock is not None:
            self._sock.settimeout(5.0)  # a wedged worker must not stall shutdown
            try:
                send_frame(self._sock, None)
                recv_frame(self._sock)
            except (EOFError, OSError, ProtocolError):
                pass
        self._reap(graceful_timeout=5.0)

    def destroy(self) -> None:
        """Tear the worker down now (crash recovery path)."""
        self._reap(graceful_timeout=0.0)

    def _reap(self, graceful_timeout: float) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.join(timeout=graceful_timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate resisted
            proc.kill()
            proc.join(timeout=1.0)


class SupervisedExecutor(ShardExecutor):
    """Worker processes behind one :class:`~repro.fleet.supervisor.ShardSupervisor`.

    ``call``, ``scatter`` and ``close`` are the supervisor's; a subclass
    only configures it.  :class:`ProcessExecutor` and
    :class:`~repro.fleet.executor.SocketExecutor` are siblings, so
    neither inherits what is set on the other.
    """

    supervisor: ShardSupervisor

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        self.num_shards = num_shards
        self.supervisor.start(num_shards, seed, telemetry)

    def call(self, shard: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.supervisor.command(shard, method, args, kwargs)

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        return self.supervisor.scatter(method, per_shard)

    def close(self) -> None:
        self.supervisor.stop()


class ProcessExecutor(SupervisedExecutor):
    """One worker process per shard; a lost worker stays lost.

    Its supervisor never restarts a worker and runs no heartbeat, so it
    journals nothing.  ``call_timeout`` bounds how long a command may go
    unanswered before it fails as :class:`ShardError` (``None`` = wait
    forever as long as the worker lives).  A worker that dies
    mid-command closes its end of the socketpair, so the coordinator
    reads EOF at once.  Either way the shard is down for good: its later
    commands raise :class:`ShardError` too.
    """

    def __init__(
        self, mp_context: str | None = None, call_timeout: float | None = None
    ) -> None:
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(f"call_timeout must be positive, got {call_timeout}")
        from ..fleet.supervisor import ShardSupervisor  # the fleet builds on this module

        self.supervisor = ShardSupervisor(
            restart=False, call_timeout=call_timeout, mp_context=mp_context
        )


_EXECUTORS: dict[str, type[ShardExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(executor: str | ShardExecutor) -> ShardExecutor:
    """Coerce an executor name or instance.

    Names: ``serial`` / ``thread`` / ``process`` (this module) plus
    ``socket`` — the supervised worker fleet, imported lazily because
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
