"""The per-shard command journal: what to replay after a crash.

A supervised shard restores from its latest checkpoint, but the
checkpoint is only as fresh as the last ``save_checkpoint`` — everything
the shard applied *since* then lives only in its (now lost) process
memory.  :class:`CommandJournal` closes that gap: the supervisor appends
every state-mutating command before dispatching it, and each time the
shard's state becomes a checkpoint file (a save, or a load) the journal
records that file and forgets the commands it covers.  So the journal
always holds exactly what a revive uses, and recovery is

1. restore :attr:`CommandJournal.checkpoint`, if the shard ever had one,
   and
2. replay :attr:`CommandJournal.entries` in order.

Because every journaled command is deterministic given the shard's
restored state (ingest batches carry their domain indices; registration
carries its spec; the checkpoint carries RNG bit state), replay
reproduces the pre-crash state exactly — the chaos suite proves answers
are identical to a never-crashed engine at every batch boundary.

A shard that has never checkpointed replays every command since it
started into a fresh worker, so supervision works without checkpoints
too, at the cost of a journal that only grows.
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
    """The commands a shard applied since its last checkpoint.

    ``append`` records a command *before* it is sent: if the worker dies
    mid-apply, replay re-applies it onto the restored checkpoint, which
    is correct precisely because the crash also discarded any partial
    effect.  :meth:`checkpointed` records the checkpoint file the shard's
    state now is and drops every entry, so a long-running fleet keeps no
    replay state a checkpoint covers.  ``replayed_total`` is counted by
    the revive that replays the entries.
    """

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []
        #: The checkpoint file a revive restores first; ``None`` until one.
        self.checkpoint: str | None = None
        self.appended_total = 0
        self.replayed_total = 0

    def append(self, method: str, args: tuple[Any, ...], kwargs: dict[str, Any]) -> JournalEntry:
        """Record one mutating command (call before dispatching it)."""
        entry = JournalEntry(method, tuple(args), dict(kwargs))
        self.entries.append(entry)
        self.appended_total += 1
        return entry

    def retract(self) -> None:
        """Drop the newest entry: the worker refused it, so replay must not."""
        self.entries.pop()

    def checkpointed(self, path: str) -> None:
        """The shard's state is now the checkpoint at ``path``: forget the entries."""
        self.entries.clear()
        self.checkpoint = path

    @property
    def pending(self) -> int:
        """Entries a crash right now would need to replay: all of them."""
        return len(self.entries)

    def as_dict(self) -> dict[str, object]:
        """JSON-compatible accounting snapshot (no command payloads).

        ``mark_ref`` is the checkpoint a revive restores.
        """
        return {
            "entries": len(self.entries),
            "pending": self.pending,
            "mark_ref": self.checkpoint,
            "appended_total": self.appended_total,
            "replayed_total": self.replayed_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommandJournal(entries={len(self.entries)}, checkpoint={self.checkpoint!r})"
