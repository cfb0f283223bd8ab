"""Ingest validation and dead-letter buffer behaviour."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.resilience.deadletter import (
    REASON_ARITY,
    REASON_NON_FINITE,
    REASON_OUT_OF_DOMAIN,
    DeadLetter,
    DeadLetterBuffer,
    validate_rows,
)
from repro.streams import JoinQuery, StreamEngine
from repro.streams.relation import StreamRelation


def make_relation(size=10, ndim=1) -> StreamRelation:
    return StreamRelation("R", [f"A{i}" for i in range(ndim)], [Domain.of_size(size)] * ndim)


class TestValidateRows:
    def test_clean_batch_passes_through(self):
        relation = make_relation()
        clean, rejects = validate_rows(relation, np.array([[1], [2], [3]]))
        assert rejects == []
        assert clean.shape == (3, 1)

    def test_out_of_domain_rows_rejected(self):
        relation = make_relation(size=10)
        clean, rejects = validate_rows(relation, [[1], [99], [-3], [5]])
        assert clean[:, 0].tolist() == [1, 5]
        assert [r for _, r in rejects] == [REASON_OUT_OF_DOMAIN] * 2
        assert {row for row, _ in rejects} == {(99,), (-3,)}

    def test_nan_and_inf_rejected_as_non_finite(self):
        relation = make_relation()
        clean, rejects = validate_rows(
            relation, np.array([[1.0], [float("nan")], [float("inf")], [4.0]])
        )
        assert clean.shape[0] == 2
        assert [r for _, r in rejects] == [REASON_NON_FINITE] * 2

    def test_ragged_arity_rejected(self):
        relation = make_relation()
        clean, rejects = validate_rows(relation, [[1], [1, 2], [], [3]])
        assert clean.shape[0] == 2
        assert [r for _, r in rejects] == [REASON_ARITY] * 2

    def test_mixed_rejections_report_each_reason(self):
        relation = make_relation(size=10)
        clean, rejects = validate_rows(relation, [[1], [99], [float("nan")], [5], [1, 2]])
        assert clean.shape[0] == 2
        reasons = sorted(r for _, r in rejects)
        assert reasons == sorted([REASON_ARITY, REASON_NON_FINITE, REASON_OUT_OF_DOMAIN])

    def test_multi_attribute_relation(self):
        relation = make_relation(size=5, ndim=2)
        clean, rejects = validate_rows(relation, [[1, 2], [1, 7], [0, 0], [3]])
        assert clean.shape == (2, 2)
        assert len(rejects) == 2

    def test_empty_batch(self):
        relation = make_relation()
        clean, rejects = validate_rows(relation, [])
        assert clean.shape[0] == 0
        assert rejects == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_batch_agrees_with_the_row_by_row_path(self, seed):
        # A well-shaped mixed batch is checked column by column.  The same
        # rows behind one of the wrong arity are ragged and go row by row;
        # both must keep and reject the same rows for the same reasons.
        nan, inf = float("nan"), float("inf")
        relation = StreamRelation(
            "R",
            ["city", "age", "score"],
            [
                Domain.categorical(["austin", "boston", 1.5]),
                Domain.integer_range(18, 40),
                Domain.of_size(8),
            ],
        )
        columns = [
            ["austin", "boston", 1.5, "paris", nan],
            [18, 30, 40, 99, 20.0, 20.5, nan, inf],
            [0, 7, 9, -1, 3.0, -inf],
        ]
        rng = np.random.default_rng(seed)
        rows = [
            tuple(column[int(rng.integers(len(column)))] for column in columns)
            for _ in range(300)
        ]
        clean, rejects = validate_rows(relation, rows)
        ragged_clean, ragged_rejects = validate_rows(relation, [("austin",), *rows])
        assert ragged_rejects == [(("austin",), REASON_ARITY), *rejects]
        assert clean.tolist() == ragged_clean.tolist()
        assert {reason for _, reason in rejects} == {REASON_NON_FINITE, REASON_OUT_OF_DOMAIN}
        assert 0 < len(clean) < len(rows)


class TestDeadLetterBuffer:
    def letter(self, i: int) -> DeadLetter:
        return DeadLetter("R", (i,), "insert", REASON_OUT_OF_DOMAIN)

    def test_bounded_ring_evicts_oldest(self):
        buffer = DeadLetterBuffer(capacity=3)
        for i in range(5):
            buffer.add(self.letter(i))
        assert len(buffer) == 3
        assert buffer.total == 5
        assert buffer.dropped == 2
        assert [l.row for l in buffer] == [(2,), (3,), (4,)]

    def test_tail_returns_most_recent(self):
        buffer = DeadLetterBuffer(capacity=10)
        for i in range(6):
            buffer.add(self.letter(i))
        assert [l.row for l in buffer.tail(2)] == [(4,), (5,)]
        assert buffer.tail(0) == []

    def test_clear_preserves_accounting(self):
        buffer = DeadLetterBuffer(capacity=2)
        for i in range(4):
            buffer.add(self.letter(i))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.total == 4
        assert buffer.dropped == 2

    def test_as_dict_snapshot(self):
        buffer = DeadLetterBuffer(capacity=4)
        buffer.add(self.letter(1))
        snap = buffer.as_dict()
        assert snap["held"] == 1
        assert snap["tail"][0]["reason"] == REASON_OUT_OF_DOMAIN

    def test_rejects_capacity_below_one(self):
        with pytest.raises(ValueError):
            DeadLetterBuffer(capacity=0)


class TestEngineDeadLettering:
    def make_engine(self):
        engine = StreamEngine(seed=0)
        domain = Domain.of_size(10)
        engine.create_relation("R1", ["A"], [domain])
        engine.create_relation("R2", ["A"], [domain])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        engine.register_query("q", query, method="cosine", budget=8)
        return engine

    def test_disabled_by_default_bad_batch_raises(self):
        engine = self.make_engine()
        with pytest.raises(Exception):
            engine.ingest_batch("R1", [[99]])

    def test_poisoned_batch_is_split_not_fatal(self):
        engine = self.make_engine()
        letters = engine.enable_dead_lettering(capacity=16)
        engine.ingest_batch("R1", [[1], [99], [float("nan")], [5], [1, 2]])
        assert engine.relations["R1"].count == 2
        assert letters.total == 3
        reasons = sorted(l.reason for l in letters)
        assert reasons == sorted([REASON_ARITY, REASON_NON_FINITE, REASON_OUT_OF_DOMAIN])

    def test_metrics_labelled_per_relation_and_reason(self):
        engine = self.make_engine()
        engine.enable_dead_lettering()
        engine.ingest_batch("R1", [[99], [98]])
        engine.ingest_batch("R2", [[float("inf")]])
        counter = engine.telemetry.registry.counter(
            "repro_ingest_dead_letters_total",
            "Rows rejected into the dead-letter buffer.",
            labelnames=("relation", "reason"),
        )
        assert counter.labels("R1", REASON_OUT_OF_DOMAIN).value == 2
        assert counter.labels("R2", REASON_NON_FINITE).value == 1

    def test_synopses_only_see_clean_rows(self):
        engine = self.make_engine()
        engine.enable_dead_lettering()
        control = self.make_engine()
        engine.ingest_batch("R1", [[1], [99], [2]])
        engine.ingest_batch("R2", [[1], [2], [float("nan")]])
        control.ingest_batch("R1", [[1], [2]])
        control.ingest_batch("R2", [[1], [2]])
        assert engine.answer("q") == pytest.approx(control.answer("q"))

    def test_fully_clean_batch_records_nothing(self):
        engine = self.make_engine()
        letters = engine.enable_dead_lettering()
        engine.ingest_batch("R1", [[1], [2]])
        assert letters.total == 0
        assert engine.relations["R1"].count == 2


class TestOneMembershipVerdict:
    """A row is clean under dead-lettering exactly when a plain engine ingests it."""

    @staticmethod
    def make_engines():
        from repro.sharding import ShardedStreamEngine

        plain, guarded = StreamEngine(seed=0), StreamEngine(seed=0)
        fleet = ShardedStreamEngine(num_shards=2, seed=0)
        for target in (plain, guarded, fleet):
            target.create_relation("R", ["A"], [Domain.of_size(10)])
        guarded.enable_dead_lettering()
        fleet.enable_dead_lettering()
        return plain, guarded, fleet

    def test_bool_rows_land_in_cells_one_and_zero(self):
        plain, guarded, fleet = self.make_engines()
        with fleet:
            for target in (plain, guarded, fleet):
                target.ingest_batch("R", np.array([[True], [False]]))
            expected = [1, 1] + [0] * 8
            assert plain.relations["R"].counts.tolist() == expected
            assert guarded.relations["R"].counts.tolist() == expected
            assert fleet.merged_counts("R").tolist() == expected
            assert guarded.dead_letters.total == fleet.dead_letters.total == 0

    @pytest.mark.parametrize(
        "value", [None, 2**70, 3 + 0j, np.complex128(3)], ids=["none", "huge", "complex", "np-complex"]
    )
    def test_a_refused_value_raises_value_error_or_parks_out_of_domain(self, value):
        rows = np.empty((2, 1), dtype=object)
        rows[:, 0] = [value, 4]
        plain, guarded, fleet = self.make_engines()
        with fleet:
            with pytest.raises(ValueError):
                plain.ingest_batch("R", rows)
            for target in (guarded, fleet):
                target.ingest_batch("R", rows)
                assert [letter.reason for letter in target.dead_letters] == [REASON_OUT_OF_DOMAIN]
            assert guarded.relations["R"].counts.tolist() == [0] * 4 + [1] + [0] * 5
            assert fleet.merged_counts("R").tolist() == [0] * 4 + [1] + [0] * 5

    def test_complex_values_are_never_integers(self):
        rows = np.array([[3 + 0j], [4 + 0j]])
        plain, guarded, fleet = self.make_engines()
        with fleet:
            with pytest.raises(ValueError, match="non-integer"):
                plain.ingest_batch("R", rows)
            for target in (guarded, fleet):
                target.ingest_batch("R", rows)
                assert [letter.reason for letter in target.dead_letters] == [REASON_OUT_OF_DOMAIN] * 2


class TestReplay:
    def make_engine(self, size=10):
        engine = StreamEngine(seed=0)
        engine.create_relation("R1", ["A"], [Domain.of_size(size)])
        engine.create_relation("R2", ["A"], [Domain.of_size(size)])
        return engine

    def test_replay_into_a_corrected_engine_partial_success(self):
        """Rows parked for a too-narrow domain ingest once it is widened."""
        narrow = self.make_engine(size=10)
        narrow.enable_dead_lettering()
        narrow.ingest_batch("R1", [[99], [12], [float("nan")]])
        narrow.ingest_batch("R2", [[55]])
        assert narrow.dead_letters.total == 4

        wide = self.make_engine(size=100)
        wide.enable_dead_lettering()
        report = narrow.dead_letters.replay(wide)

        assert report.attempted == 4
        assert report.ingested == 3  # 99, 12, 55 fit the wide domain
        assert report.still_dead == 1  # NaN is bad in any domain
        assert report.by_relation == {"R1": 2, "R2": 1}
        assert wide.relations["R1"].count == 2
        assert wide.relations["R2"].count == 1
        # the still-bad row re-parked in the *target's* buffer...
        assert len(wide.dead_letters) == 1
        assert next(iter(wide.dead_letters)).reason == REASON_NON_FINITE
        # ...and the source buffer was drained
        assert len(narrow.dead_letters) == 0

    def test_replay_preserves_ingest_order_within_a_relation(self):
        narrow = self.make_engine(size=5)
        narrow.enable_dead_lettering()
        narrow.ingest_batch("R1", [[7], [8]])
        narrow.ingest_batch("R2", [[9]])
        narrow.ingest_batch("R1", [[6]])

        wide = self.make_engine(size=100)
        wide.enable_dead_lettering()
        control = self.make_engine(size=100)
        control.ingest_batch("R1", [[7], [8]])
        control.ingest_batch("R2", [[9]])
        control.ingest_batch("R1", [[6]])

        report = narrow.dead_letters.replay(wide)
        assert report.ingested == 4 and report.still_dead == 0
        assert wide.relations["R1"].counts.tolist() == (
            control.relations["R1"].counts.tolist()
        )

    def test_replay_of_empty_buffer_reports_zeroes(self):
        engine = self.make_engine()
        buffer = engine.enable_dead_lettering()
        report = buffer.replay(engine)
        assert report.as_dict() == {
            "attempted": 0,
            "ingested": 0,
            "still_dead": 0,
            "by_relation": {},
        }

    def test_replay_refuses_an_unguarded_target(self):
        engine = self.make_engine()
        engine.enable_dead_lettering()
        engine.ingest_batch("R1", [[99]])
        unguarded = self.make_engine(size=100)
        with pytest.raises(ValueError, match="dead-lettering"):
            engine.dead_letters.replay(unguarded)

    def test_self_replay_reparks_rows_that_are_still_bad(self):
        engine = self.make_engine(size=10)
        buffer = engine.enable_dead_lettering()
        engine.ingest_batch("R1", [[99]])
        report = buffer.replay(engine)
        assert report.attempted == 1 and report.still_dead == 1
        assert len(buffer) == 1  # back in the ring for the next attempt
        assert buffer.total == 2  # the re-rejection counts like any other

    def test_sharded_engine_replay_entry_point(self):
        from repro.sharding import ShardedStreamEngine

        fleet = ShardedStreamEngine(num_shards=2, seed=1)
        fleet.create_relation("R1", ["A"], [Domain.of_size(10)])
        fleet.enable_dead_lettering()
        fleet.ingest_batch("R1", [[1], [99]])
        assert fleet.dead_letters.total == 1
        report = fleet.replay_dead_letters()
        assert report.attempted == 1 and report.still_dead == 1
        fleet.close()

    def test_sharded_engine_replay_requires_enablement(self):
        from repro.sharding import ShardedStreamEngine

        fleet = ShardedStreamEngine(num_shards=2, seed=1)
        with pytest.raises(ValueError, match="not enabled"):
            fleet.replay_dead_letters()
        fleet.close()
