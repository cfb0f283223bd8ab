"""CommandJournal: append/retract, the checkpoint step and its accounting."""

from repro.resilience.journal import CommandJournal, JournalEntry


def filled_journal(n=4):
    journal = CommandJournal()
    for i in range(n):
        journal.append("ingest", ("R", [[i]]), {"traceparent": None})
    return journal


class TestAppendAndReplay:
    def test_append_preserves_order_and_payload(self):
        journal = CommandJournal()
        journal.append("create_relation", ("R", ["A"]), {})
        entry = journal.append("ingest", ("R", [[1], [2]]), {"traceparent": "t"})
        assert isinstance(entry, JournalEntry)
        assert entry.method == "ingest"
        assert entry.args == ("R", [[1], [2]])
        assert entry.kwargs == {"traceparent": "t"}
        assert [e.method for e in journal.entries] == [
            "create_relation",
            "ingest",
        ]

    def test_unmarked_journal_replays_everything(self):
        journal = filled_journal(3)
        assert journal.checkpoint is None
        assert journal.pending == 3
        assert len(journal.entries) == 3

    def test_mark_splits_replay_suffix(self):
        # A checkpoint forgets what it covers: the entries are the suffix.
        journal = filled_journal(2)
        journal.checkpointed("ckpt-0001")
        journal.append("ingest", ("R", [[9]]), {})
        assert journal.checkpoint == "ckpt-0001"
        assert journal.pending == 1
        assert [e.args[1] for e in journal.entries] == [[[9]]]


class TestAccounting:
    def test_counters_and_snapshot(self):
        journal = filled_journal(3)
        journal.checkpointed("ckpt")
        journal.append("ingest", ("R", [[5]]), {})
        snapshot = journal.as_dict()
        assert snapshot == {
            "entries": 1,
            "pending": 1,
            "mark_ref": "ckpt",
            "appended_total": 4,
            "replayed_total": 0,
        }

    def test_appended_total_survives_truncate(self):
        journal = filled_journal(5)
        journal.checkpointed("ckpt")
        assert journal.entries == []
        assert journal.as_dict()["appended_total"] == 5
