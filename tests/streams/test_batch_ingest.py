"""Batched ingestion: batch/sequential parity, mixed batches, and stats.

The batch fast path (``StreamRelation.insert_rows`` / ``delete_rows`` /
``process_batch`` and ``StreamEngine.ingest_batch``) must be a pure
optimization: identical exact state and identical estimates to per-tuple
ingestion, for every estimation method — including ``"sample"``, whose RNG
consumes the same double stream batched or not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.streams import JoinQuery, OpKind, StreamEngine, StreamOp
from repro.streams.relation import StreamObserver, StreamRelation

ALL_METHODS = (
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
)

DOMAIN_SIZE = 24


def single_join_engine(seed: int, methods=ALL_METHODS) -> StreamEngine:
    engine = StreamEngine(seed=seed)
    domain = Domain.of_size(DOMAIN_SIZE)
    engine.create_relation("R1", ["A"], [domain])
    engine.create_relation("R2", ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    for method in methods:
        options = {"probability": 0.5} if method == "sample" else {}
        engine.register_query(f"q_{method}", query, method=method, budget=24, **options)
    return engine


def feed_sequential(engine: StreamEngine, streams: dict) -> None:
    for name, values in streams.items():
        for value in values:
            engine.insert(name, (int(value),))


def feed_batched(engine: StreamEngine, streams: dict, batch: int) -> None:
    for name, values in streams.items():
        rows = np.asarray(values, dtype=np.int64)[:, None]
        for lo in range(0, rows.shape[0], batch):
            engine.ingest_batch(name, rows[lo : lo + batch])


values_list = st.lists(
    st.integers(0, DOMAIN_SIZE - 1), min_size=1, max_size=60
)


class TestBatchSequentialParity:
    @settings(max_examples=20, deadline=None)
    @given(
        left=values_list,
        right=values_list,
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 40),
    )
    def test_all_methods_agree(self, left, right, seed, batch):
        """Same seeded stream => same answer() for every method, any batch size."""
        streams = {"R1": left, "R2": right}
        sequential = single_join_engine(seed)
        feed_sequential(sequential, streams)
        batched = single_join_engine(seed)
        feed_batched(batched, streams, batch)

        np.testing.assert_array_equal(
            sequential.relations["R1"].counts, batched.relations["R1"].counts
        )
        seq_answers = sequential.answers()
        bat_answers = batched.answers()
        for method in ALL_METHODS:
            assert seq_answers[f"q_{method}"] == pytest.approx(
                bat_answers[f"q_{method}"], rel=1e-9, abs=1e-6
            ), method

    def test_sample_rng_parity_is_exact(self):
        """Bernoulli acceptance is bit-identical batched vs sequential."""
        rng = np.random.default_rng(3)
        streams = {
            "R1": (rng.integers(0, DOMAIN_SIZE, 200)).tolist(),
            "R2": (rng.integers(0, DOMAIN_SIZE, 200)).tolist(),
        }
        sequential = single_join_engine(7, methods=("sample",))
        feed_sequential(sequential, streams)
        batched = single_join_engine(7, methods=("sample",))
        feed_batched(batched, streams, batch=64)
        assert sequential.answer("q_sample") == batched.answer("q_sample")

    def test_deletions_agree_for_linear_methods(self):
        """Insert-then-delete batches match sequential for deletion-capable methods."""
        methods = ("cosine", "basic_sketch", "histogram", "wavelet", "partitioned_sketch")
        rng = np.random.default_rng(11)
        inserts = {name: rng.integers(0, DOMAIN_SIZE, 120).tolist() for name in ("R1", "R2")}
        removals = {name: values[:40] for name, values in inserts.items()}

        sequential = single_join_engine(1, methods=methods)
        feed_sequential(sequential, inserts)
        for name, values in removals.items():
            for value in values:
                sequential.delete(name, (int(value),))

        batched = single_join_engine(1, methods=methods)
        feed_batched(batched, inserts, batch=50)
        for name, values in removals.items():
            rows = np.asarray(values, dtype=np.int64)[:, None]
            batched.ingest_batch(name, rows, kind=OpKind.DELETE)

        seq_answers = sequential.answers()
        bat_answers = batched.answers()
        for method in methods:
            assert seq_answers[f"q_{method}"] == pytest.approx(
                bat_answers[f"q_{method}"], rel=1e-9, abs=1e-6
            ), method


def make_relation():
    return StreamRelation(
        "R", ["A", "B"], [Domain.integer_range(0, 4), Domain.integer_range(10, 14)]
    )


class BatchRecorder(StreamObserver):
    def __init__(self):
        self.batches = []
        self.ops = []

    def on_op(self, relation, op):
        self.ops.append(op)

    def on_ops(self, relation, rows, kind):
        self.batches.append((rows.shape[0], kind))


class PerOpOnly:
    """Duck-typed observer without on_ops: must still see batched tuples."""

    def __init__(self):
        self.ops = []

    def on_op(self, relation, op):
        self.ops.append(op)


class TestProcessBatch:
    def test_mixed_kinds_split_into_runs(self):
        r = make_relation()
        rec = BatchRecorder()
        r.attach(rec)
        ops = [
            StreamOp((0, 10)),
            StreamOp((1, 11)),
            StreamOp((0, 10), OpKind.DELETE),
            StreamOp((2, 12)),
        ]
        r.process_batch(ops)
        assert rec.batches == [
            (2, OpKind.INSERT),
            (1, OpKind.DELETE),
            (1, OpKind.INSERT),
        ]
        assert r.count == 2
        assert r.counts[0, 0] == 0 and r.counts[1, 1] == 1 and r.counts[2, 2] == 1

    def test_mixed_batch_matches_sequential_state(self):
        rng = np.random.default_rng(5)
        ops = []
        live = []
        for _ in range(80):
            if live and rng.random() < 0.3:
                victim = live.pop(int(rng.integers(0, len(live))))
                ops.append(StreamOp(victim, OpKind.DELETE))
            else:
                row = (int(rng.integers(0, 5)), int(rng.integers(10, 15)))
                live.append(row)
                ops.append(StreamOp(row))
        a, b = make_relation(), make_relation()
        for op in ops:
            a.process(op)
        b.process_batch(ops)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.count == b.count

    def test_delete_run_exceeding_held_is_rejected_atomically(self):
        r = make_relation()
        r.insert_rows([(0, 10), (1, 11)])
        with pytest.raises(ValueError, match="does not hold"):
            r.delete_rows([(0, 10), (0, 10)])
        # the rejected batch left the exact state untouched
        assert r.count == 2
        assert r.counts[0, 0] == 1

    def test_per_op_observer_fallback(self):
        r = make_relation()
        duck = PerOpOnly()
        r.attach(duck)
        r.insert_rows([(0, 10), (1, 11), (1, 11)])
        assert [op.kind for op in duck.ops] == [OpKind.INSERT] * 3
        assert [tuple(op.values) for op in duck.ops] == [(0, 10), (1, 11), (1, 11)]

    def test_default_on_ops_falls_back_to_on_op(self):
        class Subclassed(StreamObserver):
            def __init__(self):
                self.ops = []

            def on_op(self, relation, op):
                self.ops.append(op)

        r = make_relation()
        obs = Subclassed()
        r.attach(obs)
        r.insert_rows([(2, 12), (3, 13)])
        assert len(obs.ops) == 2

    def test_rows_shape_validated(self):
        r = make_relation()
        with pytest.raises(ValueError, match="shape"):
            r.insert_rows(np.zeros((3, 3), dtype=np.int64))

    def test_load_counts_after_attach_still_guarded(self):
        """Bulk-load must stay rejected once any (batch) observer is attached."""
        r = make_relation()
        r.attach(BatchRecorder())
        with pytest.raises(ValueError, match="observers"):
            r.load_counts(np.zeros((5, 5)))


class TestEngineStats:
    def test_counters_after_ingest_and_answer(self):
        engine = single_join_engine(0, methods=("cosine", "basic_sketch"))
        rows = np.arange(48, dtype=np.int64)[:, None] % DOMAIN_SIZE
        engine.ingest_batch("R1", rows)
        engine.ingest_batch("R2", rows)
        engine.insert("R1", (3,))
        engine.answers()
        stats = engine.stats()
        assert stats.tuples_ingested == 97
        assert stats.batched_ops == 96
        assert stats.batches == 2
        assert stats.per_tuple_ops == 1
        assert stats.estimate_calls == 2
        assert stats.estimate_time > 0
        assert set(stats.observer_time) == {"cosine", "basic_sketch"}
        assert all(t > 0 for t in stats.observer_time.values())
        assert stats.observer_ops["cosine"] == 97

    def test_reset(self):
        engine = single_join_engine(0, methods=("cosine",))
        engine.ingest_batch("R1", np.zeros((4, 1), dtype=np.int64))
        engine.stats().reset()
        assert engine.stats().tuples_ingested == 0
        assert engine.stats().observer_time == {}

    def test_as_dict_roundtrips_to_json(self):
        import json

        engine = single_join_engine(0, methods=("cosine",))
        engine.ingest_batch("R1", np.zeros((4, 1), dtype=np.int64))
        engine.ingest_batch("R2", np.zeros((4, 1), dtype=np.int64))
        engine.answer("q_cosine")
        payload = json.loads(json.dumps(engine.stats().as_dict()))
        assert payload["tuples_ingested"] == 8
        assert payload["estimate_calls"] == 1


class TestIngestBatchDispatch:
    def test_delete_kind_routes_to_delete_rows(self):
        engine = single_join_engine(0, methods=("cosine",))
        rows = np.full((10, 1), 7, dtype=np.int64)
        engine.ingest_batch("R1", rows)
        engine.ingest_batch("R1", rows[:4], kind=OpKind.DELETE)
        assert engine.relations["R1"].count == 6
        assert engine.relations["R1"].counts[7] == 6

    def test_sample_method_rejects_batched_deletes(self):
        engine = single_join_engine(0, methods=("sample",))
        rows = np.zeros((5, 1), dtype=np.int64)
        engine.ingest_batch("R1", rows)
        with pytest.raises(NotImplementedError, match="Bernoulli"):
            engine.ingest_batch("R1", rows[:1], kind=OpKind.DELETE)


class TestApplyRows:
    def test_returns_the_indices_the_batch_was_applied_at(self):
        domain = Domain.integer_range(10, 19)
        relation = StreamRelation("R", ["A", "B"], [domain, Domain.of_size(4)])
        rows = np.array([[12, 3], [10, 0], [12, 3]])
        idx = relation.apply_rows(rows, OpKind.INSERT)
        np.testing.assert_array_equal(idx, [[2, 3], [0, 0], [2, 3]])
        assert relation.counts[2, 3] == 2
        idx = relation.apply_rows(rows[:1], OpKind.DELETE)
        np.testing.assert_array_equal(idx, [[2, 3]])
        assert relation.counts[2, 3] == 1 and relation.count == 2

    def test_an_empty_batch_changes_nothing(self):
        relation = StreamRelation("R", ["A"], [Domain.of_size(4)])
        idx = relation.apply_rows([], OpKind.DELETE)
        assert idx.shape == (0, 1) and relation.count == 0
