"""Shard process supervision: launch, scatter, heartbeat, restart, replay.

:class:`ShardSupervisor` is the only code that speaks to shard worker
processes; both process executors run on it.  It owns one worker process
per shard, each behind a :class:`~repro.sharding.executor.WorkerProcess`
handle (a socketpair carrying pickled frames).
:meth:`ShardSupervisor.scatter` writes every named shard's frame before
it reads any reply, and :meth:`ShardSupervisor.command` is its one-shard
case.  With ``restart`` on, it keeps the fleet answer-correct across
worker crashes:

* every state-mutating command is appended to that shard's
  :class:`~repro.resilience.journal.CommandJournal` *before* dispatch,
  and dropped again if the worker refuses it;
* a successful ``save_checkpoint`` or checkpoint load records its file
  in the journal and drops the entries it covers, so the journal holds
  exactly the commands since that checkpoint, every index slice
  ingested since included;
* when a worker is gone — transport error, clean EOF, or a call
  timeout, all treated identically — the supervisor respawns the
  process, restores the journal's checkpoint (if there ever was one) and
  replays the journal in order.  Replay is correct because a crash
  discards *all* partial effects of the in-flight command, and every
  journaled command is deterministic given the restored state.

With ``restart=False`` (the process executor's) nothing is journaled,
and a lost worker marks its shard down.

Liveness has two detectors.  The command path detects death
synchronously (the failed send/recv triggers the revive before the
caller sees a result), which is what makes chaos-kill at a batch
boundary deterministic.  The optional heartbeat thread pings idle
shards every ``heartbeat_interval`` seconds so a crashed worker is
revived even when no commands are flowing; a busy shard is skipped (its
in-flight command is the better liveness probe).

A shard that exhausts ``max_restarts`` (or crashes with ``restart``
disabled, or fails *during* recovery) is marked down: subsequent
commands raise :class:`~repro.sharding.executor.ShardError`
immediately, which is the signal the engine's ``partial`` degradation
policy turns into a survivor-scaled answer.

Everything is observable: ``repro_fleet_restarts_total{shard}``,
``repro_fleet_heartbeat_misses_total{shard}`` and the
``repro_fleet_shard_up{shard}`` gauge live in the supervisor's
:class:`~repro.obs.metrics.MetricsRegistry` (merged into
``fleet_metrics()`` by the sharded engine).
"""

from __future__ import annotations

import threading
from typing import Any, NoReturn, Sequence

from ..obs.metrics import MetricsRegistry
from ..resilience.journal import CommandJournal
from ..sharding.executor import CallSpec, ShardError, WorkerGone, WorkerProcess

__all__ = ["JOURNALED_METHODS", "ShardSupervisor"]

#: Worker methods that mutate shard state and must be replayed after a
#: restore; everything else is a read and is simply retried.
JOURNALED_METHODS = frozenset(
    {
        "create_relation",
        "register_query",
        "unregister_query",
        "enable_fault_isolation",
        "ingest",
    }
)


class ShardSupervisor:
    """Launch, monitor, and self-heal a fleet of shard worker processes."""

    def __init__(
        self,
        restart: bool = True,
        max_restarts: int = 5,
        call_timeout: float | None = 30.0,
        heartbeat_interval: float | None = None,
        heartbeat_misses: int = 3,
        registry: MetricsRegistry | None = None,
        mp_context: str | None = None,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if heartbeat_misses < 1:
            raise ValueError(f"heartbeat_misses must be >= 1, got {heartbeat_misses}")
        self.restart = restart
        self.max_restarts = max_restarts
        self.call_timeout = call_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.registry = registry if registry is not None else MetricsRegistry()
        self._ctx_name = mp_context
        self.num_shards = 0
        self._workers: list[WorkerProcess] = []
        self._journals: list[CommandJournal] = []
        self._locks: list[threading.Lock] = []
        self._restart_counts: list[int] = []
        self._miss_counts: list[int] = []
        self._down: dict[int, str] = {}
        self._stop_event = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        self._restarts_metric = self.registry.counter(
            "repro_fleet_restarts_total",
            "Supervised shard worker restarts, by shard.",
            labelnames=("shard",),
        )
        self._misses_metric = self.registry.counter(
            "repro_fleet_heartbeat_misses_total",
            "Heartbeat pings a shard worker failed to answer, by shard.",
            labelnames=("shard",),
        )
        self._up_metric = self.registry.gauge(
            "repro_fleet_shard_up",
            "Shard worker health (1 = serving, 0 = down).",
            labelnames=("shard",),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        if self._workers:
            raise RuntimeError("supervisor already started")
        self.num_shards = num_shards
        self._journals = [CommandJournal() for _ in range(num_shards)]
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._restart_counts = [0] * num_shards
        self._miss_counts = [0] * num_shards
        self._down = {}
        self._workers = WorkerProcess.start_all(
            num_shards, seed, telemetry, self._ctx_name, self.call_timeout
        )
        for shard in range(num_shards):
            self._up_metric.labels(str(shard)).set(1.0)
        if self.heartbeat_interval is not None:
            self._stop_event.clear()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-fleet-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    def stop(self) -> None:
        """Shut every worker down (idempotent)."""
        self._stop_event.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=10.0)
            self._heartbeat_thread = None
        for shard, worker in enumerate(self._workers):
            with self._locks[shard]:
                worker.stop()
                self._up_metric.labels(str(shard)).set(0.0)
        self._workers = []

    # ------------------------------------------------------------------ #
    # command dispatch
    # ------------------------------------------------------------------ #

    def command(
        self,
        shard: int,
        method: str,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> Any:
        """Run one worker command: :meth:`scatter` to one shard."""
        per_shard: list[CallSpec | None] = [None] * self.num_shards
        per_shard[shard] = (tuple(args), kwargs if kwargs is not None else {})
        return self.scatter(method, per_shard)[shard]

    def scatter(self, method: str, per_shard: Sequence[CallSpec | None]) -> list[Any]:
        """Run ``method`` on every shard ``per_shard`` names; ``None`` skips one.

        Under the named shards' locks (taken in shard order): write every
        frame before reading any reply, collect every reply, revive each
        lost worker, then raise the first :class:`ShardError` in shard
        order.  Returns one result per shard (``None`` for a skipped one).

        A journaled command that dies in flight is *not* re-sent after
        the revive: the revive's replay already applied it (exactly once,
        onto state with no partial effects), so its result is ``None``
        for that rare case.  A lost read is retried once against the
        revived worker.
        """
        calls = {shard: item for shard, item in enumerate(per_shard) if item is not None}
        journaled = self.restart and method in JOURNALED_METHODS
        results: list[Any] = [None] * self.num_shards
        errors: dict[int, ShardError] = {}
        lost: dict[int, WorkerGone] = {}
        for shard in calls:
            self._locks[shard].acquire()
        try:
            sent = []
            for shard, (args, kwargs) in calls.items():
                reason = self._down.get(shard)
                if reason is not None:
                    errors[shard] = ShardError(shard, f"worker is down ({reason})")
                    continue
                if journaled:
                    self._journals[shard].append(method, args, kwargs)
                try:
                    self._workers[shard].send((method, tuple(args), dict(kwargs)))
                except WorkerGone as exc:
                    lost[shard] = exc
                else:
                    sent.append(shard)
            for shard in sent:
                try:
                    results[shard] = self._workers[shard].recv()
                except WorkerGone as exc:
                    lost[shard] = exc
                except ShardError as exc:
                    if journaled:  # refused: a replay must not repeat it
                        self._journals[shard].retract()
                    errors[shard] = exc
            for shard, gone in sorted(lost.items()):
                try:
                    self._revive_locked(shard, gone.reason)
                    if not journaled:
                        results[shard] = self._workers[shard].call(method, *calls[shard])
                except ShardError as exc:
                    errors[shard] = exc
                except WorkerGone as exc:
                    errors[shard] = ShardError(shard, f"worker process lost ({exc.reason})")
            if method in ("save_checkpoint", "load_checkpoint", "load_latest_checkpoint"):
                # The worker's state is now the file the command names.
                for shard in calls.keys() - errors.keys():
                    self._journals[shard].checkpointed(str(results[shard]))
        finally:
            for shard in calls:
                self._locks[shard].release()
        if errors:
            raise errors[min(errors)]
        return results

    def _give_up_locked(self, shard: int, reason: str) -> NoReturn:
        """Mark the shard down for good and raise its :class:`ShardError`."""
        self._down[shard] = reason
        self._up_metric.labels(str(shard)).set(0.0)
        raise ShardError(shard, reason)

    def _revive_locked(self, shard: int, cause: str) -> None:
        """Respawn a dead worker and rebuild its state (lock held)."""
        worker = self._workers[shard]
        worker.destroy()
        self._up_metric.labels(str(shard)).set(0.0)
        if not self.restart:
            self._give_up_locked(shard, f"worker process lost ({cause}); restart is disabled")
        if self._restart_counts[shard] >= self.max_restarts:
            self._give_up_locked(
                shard, f"worker process lost ({cause}) after {self.max_restarts} restarts"
            )
        self._restart_counts[shard] += 1
        self._restarts_metric.labels(str(shard)).inc()
        journal = self._journals[shard]
        try:
            worker.spawn(self._workers)
            if journal.checkpoint is not None:
                worker.call("load_checkpoint", (journal.checkpoint,), {})
            for entry in journal.entries:
                worker.call(entry.method, entry.args, entry.kwargs)
                journal.replayed_total += 1
        except (WorkerGone, ShardError) as exc:
            # Recovery itself failed (checkpoint unreadable, replay
            # rejected, or the fresh worker died too): this shard cannot
            # be made consistent, so it must not serve partial state.
            worker.destroy()
            self._give_up_locked(shard, f"restart failed: {exc}")
        self._up_metric.labels(str(shard)).set(1.0)

    # ------------------------------------------------------------------ #
    # heartbeats
    # ------------------------------------------------------------------ #

    def _heartbeat_loop(self) -> None:
        assert self.heartbeat_interval is not None
        while not self._stop_event.wait(self.heartbeat_interval):
            for shard in range(self.num_shards):
                self._heartbeat_one(shard)

    def _heartbeat_one(self, shard: int) -> None:
        lock = self._locks[shard]
        if not lock.acquire(blocking=False):
            # Busy shard: its in-flight command is the liveness probe.
            return
        try:
            if shard in self._down:
                return
            try:
                self._workers[shard].call("ping", (), {})
            except (WorkerGone, ShardError):
                self._miss_counts[shard] += 1
                self._misses_metric.labels(str(shard)).inc()
                if self._miss_counts[shard] >= self.heartbeat_misses:
                    self._miss_counts[shard] = 0
                    try:
                        self._revive_locked(shard, "heartbeat misses exhausted")
                    except ShardError:
                        pass  # marked down; the next command reports it
            else:
                self._miss_counts[shard] = 0
        finally:
            lock.release()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def pid(self, shard: int) -> int | None:
        """The worker process id (chaos tests aim SIGKILL at this)."""
        return self._workers[shard].pid

    def pids(self) -> list[int | None]:
        return [worker.pid for worker in self._workers]

    def shard_up(self, shard: int) -> bool:
        return shard not in self._down

    def restart_count(self, shard: int) -> int:
        return self._restart_counts[shard]

    def journal(self, shard: int) -> CommandJournal:
        return self._journals[shard]

    def health(self) -> dict[str, object]:
        """JSON-compatible fleet health snapshot (serve's ``stats`` op)."""
        return {
            "num_shards": self.num_shards,
            "up": [self.shard_up(shard) for shard in range(self.num_shards)],
            "down": dict(self._down),
            "restarts": list(self._restart_counts),
            "journals": [journal.as_dict() for journal in self._journals],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSupervisor(shards={self.num_shards}, "
            f"down={sorted(self._down)}, restarts={self._restart_counts})"
        )
