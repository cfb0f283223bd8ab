"""Shards apply the replica's domain indices; no value is mapped twice.

The replica maps each batch to int64 domain indices once.  The fleet
splits those indices, not the raw rows, so every ``ingest`` a shard
receives is an int64 ``(B, ndim)`` array whatever the domain, a socket
shard's journal holds the same arrays, and a revive replays them to the
same answers.  A shard bounds-checks the indices it applies.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.sharding.worker import ShardWorker
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

EXECUTORS = ["serial", "thread", "process", "socket"]
QUERY = JoinQuery.parse(["R", "S"], ["R.A = S.A"])
CATEGORIES = [f"v{i}" for i in range(20)]
DOMAINS = {
    "offset": (Domain.integer_range(-7, 12), np.arange(-7, 13)),
    "categorical": (Domain.categorical(CATEGORIES), np.array(CATEGORIES, dtype=object)),
}


def build(engine, domain):
    engine.create_relation("R", ["A", "B"], [domain, Domain.integer_range(5, 8)])
    engine.create_relation("S", ["A"], [domain])
    engine.register_query("sketch", QUERY, method="basic_sketch", budget=8)
    engine.register_query("cosine", QUERY, method="cosine", budget=8)
    return engine


def batches(values):
    rng = np.random.default_rng(11)
    r = np.empty((50, 2), dtype=object)
    r[:, 0] = values[rng.integers(0, len(values), size=50)]
    r[:, 1] = rng.integers(5, 9, size=50)
    s = values[rng.integers(0, len(values), size=40)][:, None]
    return [
        ("R", r, OpKind.INSERT),
        ("S", s, OpKind.INSERT),
        ("R", r[:15], OpKind.DELETE),
        ("S", s[:10], OpKind.DELETE),
    ]


def spy_ingest_parts(fleet):
    """Every ``ingest`` slice the fleet scatters, as sent."""
    parts = []
    scatter = fleet._executor.scatter

    def spy(method, per_shard):
        if method == "ingest":
            parts.extend(item[0][1] for item in per_shard if item is not None)
        return scatter(method, per_shard)

    fleet._executor.scatter = spy
    return parts


@pytest.mark.parametrize("kind", sorted(DOMAINS))
@pytest.mark.parametrize("executor", EXECUTORS)
def test_shards_receive_the_replicas_int64_indices(executor, kind):
    domain, values = DOMAINS[kind]
    engine = build(StreamEngine(seed=0), domain)
    with build(ShardedStreamEngine(num_shards=3, seed=0, executor=executor), domain) as fleet:
        parts = spy_ingest_parts(fleet)
        for rel, rows, op in batches(values):
            engine.ingest_batch(rel, rows, op)
            fleet.ingest_batch(rel, rows, op)
        assert parts
        for part in parts:
            assert isinstance(part, np.ndarray) and part.dtype == np.int64 and part.ndim == 2
        for rel in ("R", "S"):
            shard_counts = [
                fleet._executor.call(shard, "relation_count", rel) for shard in range(3)
            ]
            assert sum(shard_counts) == fleet._coordinator.relations[rel].count
            np.testing.assert_array_equal(fleet.merged_counts(rel), engine.relations[rel].counts)
        assert fleet.answer("sketch") == engine.answer("sketch")
        assert fleet.answer("cosine") == pytest.approx(engine.answer("cosine"), rel=1e-9)


def test_a_killed_socket_shard_revives_from_its_index_journal():
    domain, values = DOMAINS["categorical"]
    engine = build(StreamEngine(seed=0), domain)
    with build(ShardedStreamEngine(num_shards=2, seed=0, executor="socket"), domain) as fleet:
        for rel, rows, op in batches(values):
            engine.ingest_batch(rel, rows, op)
            fleet.ingest_batch(rel, rows, op)
        supervisor = fleet._executor.supervisor
        ingests = [e for e in supervisor.journal(0).entries if e.method == "ingest"]
        assert ingests
        assert all(e.args[1].dtype == np.int64 for e in ingests)
        before = fleet.answers()
        os.kill(supervisor.pid(0), signal.SIGKILL)
        assert fleet.answer("sketch") == engine.answer("sketch")
        assert fleet.answers() == before
        assert supervisor.restart_count(0) == 1


def test_a_shard_applies_indices_and_refuses_any_outside_its_axes():
    worker = ShardWorker(0, seed=0, telemetry=False)
    worker.create_relation("R", ["A", "B"], [{"low": 100, "size": 8}, {"low": -3, "size": 4}])
    worker.ingest("R", np.array([[3, 0], [7, 3]]), OpKind.INSERT)  # indices, not values
    relation = worker.engine.relations["R"]
    assert relation.counts[3, 0] == relation.counts[7, 3] == 1
    for bad in ([[8, 0]], [[-1, 0]], [[0, 4]], [[0, -1]]):
        with pytest.raises(ValueError, match="domain indices outside"):
            worker.ingest("R", np.array(bad), OpKind.INSERT)
    with pytest.raises(ValueError, match="int64 indices"):
        worker.ingest("R", np.array([[3.0, 0.0]]), OpKind.INSERT)
    assert relation.count == 2
