"""The fleet's replica: one engine maps, checks and counts every batch.

A :class:`ShardedStreamEngine` builds its replica with the fleet, so a
fleet that registers only mergeable queries still learns its exact
counts from one engine.  On every executor, then: the fleet's counts,
exact answers and mergeable answers are one engine's; each batch, a
delete too, reaches the shards as one ``ingest`` scatter; no read fetches
a relation tensor from the shards; and a registration that a shard
refuses leaves no engine of the fleet holding the query.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine, ShardError
from repro.sharding.merge import MERGEABLE_METHODS
from repro.sharding.partition import split_rows
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

EXECUTORS = ["serial", "thread", "process", "socket"]
DOMAIN = 24
QUERY = JoinQuery.parse(["R", "S"], ["R.A = S.A"])
#: Answers that merge bit-identically; cosine sums merge to float rounding.
EXACT = sorted(MERGEABLE_METHODS - {"cosine"})


def build(engine):
    for rel in ("R", "S"):
        engine.create_relation(rel, ["A"], [Domain.of_size(DOMAIN)])
    for method in sorted(MERGEABLE_METHODS):
        engine.register_query(method, QUERY, method=method, budget=8)
    engine.register_range_query("range", "R", "A", 3, 17, budget=8)
    return engine


def stream():
    """Inserts and deletes of live rows; S never holds the value 23."""
    rng = np.random.default_rng(7)
    r = rng.integers(0, DOMAIN, size=(60, 1))
    s = rng.integers(0, DOMAIN - 1, size=(50, 1))
    return [
        ("R", r, OpKind.INSERT),
        ("S", s, OpKind.INSERT),
        ("R", r[:20], OpKind.DELETE),
        ("S", s[5:15], OpKind.DELETE),
        ("R", r[:5], OpKind.INSERT),
    ]


class Spy:
    """Records every command an executor is sent, and every shard's reply."""

    def __init__(self, executor):
        self.commands, self.replies = [], []
        scatter, call = executor.scatter, executor.call

        def spy_scatter(method, per_shard):
            self.commands.append(method)
            replies = scatter(method, per_shard)
            self.replies.extend(replies)
            return replies

        def spy_call(shard, method, *args, **kwargs):
            self.commands.append(method)
            reply = call(shard, method, *args, **kwargs)
            self.replies.append(reply)
            return reply

        executor.scatter, executor.call = spy_scatter, spy_call

    def clear(self):
        self.commands.clear()
        self.replies.clear()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_fleet_counts_are_one_engines(executor):
    engine = build(StreamEngine(seed=0))
    with build(ShardedStreamEngine(num_shards=2, seed=0, executor=executor)) as fleet:
        spy = Spy(fleet._executor)
        ops = stream()
        for rel, rows, kind in ops:
            engine.ingest_batch(rel, rows, kind)
            spy.clear()
            fleet.ingest_batch(rel, rows, kind)
            assert spy.commands == ["ingest"], (rel, kind)
        over_delete = np.array([ops[1][1][0], [DOMAIN - 1]])  # a live row, then 23
        spy.clear()
        for target in (engine, fleet):
            with pytest.raises(ValueError, match=r"deleting tuple \(23,\) that S does not hold"):
                target.ingest_batch("S", over_delete, OpKind.DELETE)
        assert spy.commands == []

        for rel in ("R", "S"):
            np.testing.assert_array_equal(fleet.merged_counts(rel), engine.relations[rel].counts)
            assert fleet.total_count(rel) == engine.relations[rel].count
        for name in engine.query_names():
            assert fleet.exact_answer(name) == engine.exact_answer(name), name
        for name in EXACT:
            assert fleet.answer(name) == engine.answer(name), name
        for name in ("cosine", "range"):
            assert fleet.answer(name) == pytest.approx(engine.answer(name), rel=1e-9)
        assert set(spy.commands) <= {"relation_count", "query_observers"}
        assert not any(isinstance(reply, np.ndarray) for reply in spy.replies)


def test_a_refused_registration_leaves_no_engine_holding_the_query():
    engine = build(StreamEngine(seed=0))
    with build(ShardedStreamEngine(num_shards=2, seed=0)) as fleet:
        for target in (engine, fleet):
            for rel, rows, kind in stream():
                target.ingest_batch(rel, rows, kind)
        fleet._executor.workers[1].engine.register_query("q2", QUERY, budget=8)
        with pytest.raises(ShardError, match="shard 1: ValueError: query 'q2' already registered"):
            fleet.register_query("q2", QUERY, method="basic_sketch", budget=8)
        engines = [
            fleet._merge_engine,
            fleet._coordinator,
            *(worker.engine for worker in fleet._executor.workers),
        ]
        assert "q2" not in fleet.query_names()
        assert not any("q2" in each.query_names() for each in engines)

        fleet.register_query("q2", QUERY, method="basic_sketch", budget=8)
        engine.register_query("q2", QUERY, method="basic_sketch", budget=8)
        assert fleet.answer("q2") == engine.answer("q2")


CATEGORIES = [f"v{i}" for i in range(DOMAIN)]


@pytest.mark.parametrize(
    "domain, values",
    [
        (Domain.integer_range(100, 100 + DOMAIN - 1), np.arange(100, 100 + DOMAIN)),
        (Domain.categorical(CATEGORIES), np.array(CATEGORIES, dtype=object)),
    ],
    ids=["offset", "categorical"],
)
def test_rows_route_on_the_replicas_indices(domain, values):
    rng = np.random.default_rng(3)
    rows = {rel: values[rng.integers(0, DOMAIN, size=80)][:, None] for rel in ("R", "S")}
    engine = StreamEngine(seed=0)
    with ShardedStreamEngine(num_shards=3, seed=0) as fleet:
        for target in (engine, fleet):
            for rel in ("R", "S"):
                target.create_relation(rel, ["A"], [domain])
            target.register_query("q", QUERY, method="basic_sketch", budget=8)
            for rel, batch in rows.items():
                target.ingest_batch(rel, batch)
            target.ingest_batch("R", rows["R"][:30], OpKind.DELETE)
        live = rows["R"][30:]
        expected = split_rows(live, domain.indices_of(live[:, 0]), 3)
        assert [
            fleet._executor.call(shard, "relation_count", "R") for shard in range(3)
        ] == [len(part) for part in expected]
        np.testing.assert_array_equal(fleet.merged_counts("R"), engine.relations["R"].counts)
        assert fleet.answer("q") == engine.answer("q")
