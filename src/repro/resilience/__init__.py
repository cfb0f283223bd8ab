"""Fault tolerance for the continuous query engine.

The paper's continuous queries "run continuously" over unbounded
streams; at production timescales that means the engine must survive
process crashes, poisoned inputs, and misbehaving synopses without
losing weeks of one-scan state that can never be rebuilt.  This package
supplies the mechanisms, each independent and individually testable:

* **Checkpoints** (:mod:`~repro.resilience.checkpoint`): versioned,
  SHA-256-verified, atomically written engine snapshots with last-K
  rotation — ``engine.save_checkpoint(path)`` /
  ``StreamEngine.load_checkpoint(path)`` round-trip the exact tensors,
  registered queries, and every synopsis state bit-for-bit.
* **Observer fault isolation** (wired in
  :mod:`repro.streams.engine`): a synopsis observer that raises is
  quarantined instead of aborting ingest; its queries degrade and
  surface :class:`~repro.resilience.errors.DegradedQueryError`.
* **Dead-letter ingest** (:mod:`~repro.resilience.deadletter`): rows
  with wrong arity, NaN/inf, or out-of-domain values are rejected into
  a bounded ring with drop accounting instead of corrupting a batch.
* **Command journal** (:mod:`~repro.resilience.journal`): the
  append-before-dispatch log a :class:`~repro.fleet.supervisor.ShardSupervisor`
  replays on top of a restored checkpoint, making a restarted shard
  answer-identical to one that never crashed.
* **Retry with backoff** (:mod:`~repro.resilience.retry`): capped
  exponential backoff with optional full jitter and an overall deadline
  for transient I/O failures, counted in ``repro_retries_total``.
* **Chaos harness** (:mod:`~repro.resilience.chaos`): deterministic
  fault injectors (flaky observers, failing filesystems, crash-at-N)
  powering the ``tests/resilience`` suite's recovery properties.

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .chaos import (
        ChaosError,
        CrashingIngest,
        FailingFilesystem,
        FlakyIO,
        FlakyObserver,
        SimulatedCrash,
    )
    from .checkpoint import (
        FORMAT_MAGIC,
        FORMAT_VERSION,
        CheckpointStore,
        read_checkpoint,
        write_checkpoint,
    )
    from .deadletter import DeadLetter, DeadLetterBuffer, ReplayReport, validate_rows
    from .errors import (
        CheckpointError,
        CheckpointIntegrityError,
        DegradedQueryError,
        ResilienceError,
    )
    from .journal import CommandJournal, JournalEntry
    from .retry import RetryPolicy, retry_io

_EXPORTS = {
    ".chaos": (
        "ChaosError",
        "CrashingIngest",
        "FailingFilesystem",
        "FlakyIO",
        "FlakyObserver",
        "SimulatedCrash",
    ),
    ".checkpoint": (
        "FORMAT_MAGIC",
        "FORMAT_VERSION",
        "CheckpointStore",
        "read_checkpoint",
        "write_checkpoint",
    ),
    ".deadletter": ("DeadLetter", "DeadLetterBuffer", "ReplayReport", "validate_rows"),
    ".errors": (
        "CheckpointError",
        "CheckpointIntegrityError",
        "DegradedQueryError",
        "ResilienceError",
    ),
    ".journal": ("CommandJournal", "JournalEntry"),
    ".retry": ("RetryPolicy", "retry_io"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ChaosError",
    "CrashingIngest",
    "FailingFilesystem",
    "FlakyIO",
    "FlakyObserver",
    "SimulatedCrash",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "CheckpointStore",
    "read_checkpoint",
    "write_checkpoint",
    "DeadLetter",
    "DeadLetterBuffer",
    "ReplayReport",
    "validate_rows",
    "CommandJournal",
    "JournalEntry",
    "CheckpointError",
    "CheckpointIntegrityError",
    "DegradedQueryError",
    "ResilienceError",
    "RetryPolicy",
    "retry_io",
]
