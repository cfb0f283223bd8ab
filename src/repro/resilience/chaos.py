"""Chaos-testing primitives: flaky observers, failing I/O, crash injection.

The fault-tolerance guarantees in this package are only as good as the
faults they are tested against, so the chaos harness makes every fault
class injectable and deterministic:

* :class:`FlakyObserver` — a stream observer that raises on a schedule,
  for exercising quarantine / degraded-query paths;
* :class:`FlakyIO` — wraps any callable to fail its first ``fail_times``
  invocations with ``OSError`` (or any exception), for exercising the
  retry/backoff paths of checkpoint writes and snapshot appends;
* :class:`FailingFilesystem` — temporarily patches ``os.replace`` /
  ``os.fsync`` to fail the first N calls, simulating a filesystem that
  recovers mid-retry;
* :class:`CrashingIngest` — drives batches into an engine and raises
  :class:`SimulatedCrash` at batch ``crash_at``, optionally saving a
  checkpoint every ``checkpoint_every`` batches first — the harness
  behind the crash-at-any-batch-boundary recovery property tests.

Everything here is deterministic (no wall clock, no ambient RNG), so a
chaos test that fails once fails every time.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..streams.relation import StreamObserver
from .checkpoint import CheckpointStore
from .errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streams.engine import ContinuousQueryEngine

__all__ = [
    "ChaosError",
    "CrashingIngest",
    "FailingFilesystem",
    "FlakyIO",
    "FlakyObserver",
    "SimulatedCrash",
]


class ChaosError(RuntimeError):
    """The fault a chaos primitive injects (distinct from real errors)."""


class SimulatedCrash(ResilienceError):
    """Raised by :class:`CrashingIngest` at the configured crash point."""


class FlakyObserver(StreamObserver):
    """An observer that raises :class:`ChaosError` on a schedule.

    ``fail_on`` is the 1-based update number (per-op or per-batch call)
    at which it starts failing; ``recover_after`` optionally caps how
    many consecutive calls fail before it goes healthy again.  When
    wrapped around an ``inner`` observer, healthy calls are forwarded,
    so it can impersonate a real synopsis that breaks mid-stream.
    """

    def __init__(
        self,
        inner: StreamObserver | None = None,
        fail_on: int = 1,
        recover_after: int | None = None,
    ) -> None:
        if fail_on < 1:
            raise ValueError(f"fail_on must be >= 1, got {fail_on}")
        self.inner = inner
        self.fail_on = fail_on
        self.recover_after = recover_after
        self.calls = 0
        self.faults_raised = 0

    def _tick(self) -> None:
        self.calls += 1
        failing = self.calls >= self.fail_on
        if failing and self.recover_after is not None:
            failing = self.calls < self.fail_on + self.recover_after
        if failing:
            self.faults_raised += 1
            raise ChaosError(
                f"injected observer fault (call {self.calls}, fails from {self.fail_on})"
            )

    def on_op(self, relation: Any, op: Any) -> None:
        self._tick()
        if self.inner is not None:
            self.inner.on_ops(relation, relation.rows_array([op.values]), op.kind)

    def on_ops(self, relation: Any, rows: Any, kind: Any) -> None:
        self._tick()
        if self.inner is not None:
            self.inner.on_ops(relation, rows, kind)


class FlakyIO:
    """Wrap a callable so its first ``fail_times`` calls raise.

    The injected exception defaults to a transient-looking ``OSError``,
    matching what :func:`~repro.resilience.retry.retry_io` retries.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        fail_times: int,
        exc_factory: Callable[[], BaseException] | None = None,
    ) -> None:
        if fail_times < 0:
            raise ValueError(f"fail_times must be >= 0, got {fail_times}")
        self.fn = fn
        self.fail_times = fail_times
        self.exc_factory = exc_factory or (lambda: OSError("injected transient I/O failure"))
        self.calls = 0
        self.failures = 0

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        if self.failures < self.fail_times:
            self.failures += 1
            raise self.exc_factory()
        return self.fn(*args, **kwargs)


class FailingFilesystem:
    """Context manager failing the first N ``os.replace`` calls.

    Simulates a filesystem hiccup under the atomic-rename step of
    checkpoint writes: the first ``fail_replaces`` renames raise
    ``OSError``, later ones succeed — exactly the transient failure the
    write path's backoff must absorb.
    """

    def __init__(self, fail_replaces: int = 1) -> None:
        if fail_replaces < 0:
            raise ValueError(f"fail_replaces must be >= 0, got {fail_replaces}")
        self.fail_replaces = fail_replaces
        self.replace_calls = 0
        self._original_replace: Callable[..., Any] | None = None

    def __enter__(self) -> "FailingFilesystem":
        original = os.replace
        self._original_replace = original

        def flaky_replace(src: Any, dst: Any, **kwargs: Any) -> Any:
            self.replace_calls += 1
            if self.replace_calls <= self.fail_replaces:
                raise OSError(f"injected rename failure #{self.replace_calls}")
            return original(src, dst, **kwargs)

        setattr(os, "replace", flaky_replace)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._original_replace is not None:
            setattr(os, "replace", self._original_replace)
        self._original_replace = None


class CrashingIngest:
    """Drive batches into an engine, checkpointing, then crash at batch N.

    The harness for the recovery property: ingest ``batches`` (a list of
    ``(relation_name, rows)`` pairs) into ``engine``, saving a rotated
    checkpoint into ``store`` every ``checkpoint_every`` batches, and
    raise :class:`SimulatedCrash` *before* applying batch number
    ``crash_at`` (1-based).  With ``crash_at=None`` it runs to the end —
    the uncrashed control run.  Returns the number of batches applied.
    """

    def __init__(
        self,
        engine: "ContinuousQueryEngine",
        store: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        crash_at: int | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if crash_at is not None and crash_at < 1:
            raise ValueError(f"crash_at must be >= 1, got {crash_at}")
        self.engine = engine
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.crash_at = crash_at
        self.batches_applied = 0

    def run(self, batches: Sequence[tuple[str, Any]]) -> int:
        for number, (relation_name, rows) in enumerate(batches, start=1):
            if self.crash_at is not None and number == self.crash_at:
                raise SimulatedCrash(
                    f"injected crash before batch {number}/{len(batches)}"
                )
            self.engine.ingest_batch(relation_name, rows)
            self.batches_applied += 1
            if self.store is not None and number % self.checkpoint_every == 0:
                self.store.save(self.engine)
        return self.batches_applied
