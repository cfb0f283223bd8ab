"""The per-shard command journal: what to replay after a crash.

A supervised shard restores from its latest checkpoint, but the
checkpoint is only as fresh as the last ``save_checkpoint`` — everything
the shard applied *since* then lives only in its (now lost) process
memory.  :class:`CommandJournal` closes that gap: the supervisor appends
every state-mutating command before dispatching it, and records a *mark*
each time a checkpoint write succeeds.  Recovery is then

1. restore the newest checkpoint (state as of the mark), and
2. replay :meth:`CommandJournal.since_mark` in order.

Because every journaled command is deterministic given the shard's
restored state (ingest batches carry their rows; registration carries
its spec; the checkpoint carries RNG bit state), replay reproduces the
pre-crash state exactly — the chaos suite proves answers are identical
to a never-crashed engine at every batch boundary.

A shard that has never checkpointed replays the *whole* journal into a
fresh worker, so supervision works without checkpoints too (at the cost
of an unbounded journal; the mark is what lets :meth:`truncate` forget
the replayed prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CommandJournal", "JournalEntry"]


@dataclass(frozen=True)
class JournalEntry:
    """One replayable command: a worker method name and its arguments."""

    method: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JournalEntry({self.method}, args={len(self.args)})"


class CommandJournal:
    """An append-only command log with a checkpoint mark.

    ``append`` records a command *before* it is sent: if the worker dies
    mid-apply, replay re-applies it onto the restored checkpoint, which
    is correct precisely because the crash also discarded any partial
    effect.  ``mark(ref)`` pins the position (and checkpoint reference,
    e.g. the store directory) of the last durable snapshot;
    ``since_mark()`` is the replay suffix.  ``truncate()`` drops the
    prefix already covered by the mark so long-running fleets do not
    accumulate unbounded replay state.
    """

    def __init__(self) -> None:
        self._entries: list[JournalEntry] = []
        self._mark_position = 0
        self._mark_ref: str | None = None
        self.appended_total = 0
        self.replayed_total = 0

    def append(self, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]) -> JournalEntry:
        """Record one mutating command (call before dispatching it)."""
        entry = JournalEntry(method, tuple(args), dict(kwargs))
        self._entries.append(entry)
        self.appended_total += 1
        return entry

    def retract(self) -> None:
        """Drop the newest entry: the worker refused it, so replay must not."""
        self._entries.pop()

    def mark(self, ref: str | None = None) -> None:
        """Pin the current position as covered by a durable checkpoint."""
        self._mark_position = len(self._entries)
        self._mark_ref = ref

    @property
    def mark_ref(self) -> str | None:
        """The reference recorded with the last mark (checkpoint dir), if any."""
        return self._mark_ref

    @property
    def has_mark(self) -> bool:
        return self._mark_ref is not None

    def since_mark(self) -> list[JournalEntry]:
        """The replay suffix: every command after the last checkpoint mark."""
        entries = self._entries[self._mark_position :]
        self.replayed_total += len(entries)
        return entries

    def all_entries(self) -> list[JournalEntry]:
        """The full log (replay-from-scratch when no checkpoint exists)."""
        self.replayed_total += len(self._entries)
        return list(self._entries)

    def truncate(self) -> int:
        """Forget the prefix covered by the mark; returns entries dropped."""
        dropped = self._mark_position
        if dropped:
            del self._entries[:dropped]
            self._mark_position = 0
        return dropped

    def clear(self) -> None:
        """Forget everything, including the mark (state reset to scratch)."""
        self._entries.clear()
        self._mark_position = 0
        self._mark_ref = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending(self) -> int:
        """Entries a crash right now would need to replay."""
        return len(self._entries) - self._mark_position

    def as_dict(self) -> dict[str, object]:
        """JSON-compatible accounting snapshot (no command payloads)."""
        return {
            "entries": len(self._entries),
            "pending": self.pending,
            "mark_ref": self._mark_ref,
            "appended_total": self.appended_total,
            "replayed_total": self.replayed_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommandJournal(entries={len(self._entries)}, "
            f"pending={self.pending}, mark={self._mark_ref!r})"
        )
