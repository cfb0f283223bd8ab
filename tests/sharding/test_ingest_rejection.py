"""A fleet rejects what one engine rejects, whole, and routes on domain indices.

One engine maps a batch to domain indices and checks a delete batch
against its live counts before it changes anything.  A fleet must keep
that promise across shards: a batch one engine rejects leaves every shard
as it was, and equal values reach one shard whatever dtype they arrive in.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind, StreamOp

EXECUTORS = ["serial", "thread", "process", "socket"]


def build(engine):
    engine.create_relation("R", ["A"], [Domain.of_size(10)])
    return engine


def shard_counts(fleet):
    return fleet._executor.broadcast("relation_count", "R")


@pytest.fixture(params=EXECUTORS)
def fleet(request):
    with ShardedStreamEngine(num_shards=2, executor=request.param) as fleet:
        yield build(fleet)


class TestWholeBatchRejection:
    def test_out_of_domain_insert_changes_no_shard(self, fleet):
        engine = build(StreamEngine())
        rows = np.array([[v] for v in [*range(8), 99]])
        for target in (engine, fleet):
            with pytest.raises(ValueError, match="outside integer domain"):
                target.ingest_batch("R", rows)
        assert engine.relations["R"].count == 0
        assert shard_counts(fleet) == [0, 0]

    def test_over_delete_changes_no_shard(self, fleet):
        engine = build(StreamEngine())
        errors = []
        for target in (engine, fleet):
            target.ingest_batch("R", np.array([[0], [2], [3]]))
            with pytest.raises(ValueError, match="does not hold") as caught:
                target.ingest_batch("R", np.array([[0], [2], [1]]), OpKind.DELETE)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "deleting tuple (1,) that R does not hold"
        assert fleet.total_count("R") == engine.relations["R"].count == 3
        np.testing.assert_array_equal(fleet.merged_counts("R"), engine.relations["R"].counts)

    def test_over_delete_rejected_by_the_replica_changes_no_shard(self, fleet):
        # A sample query keeps a whole-stream replica on the coordinator,
        # which checks a delete batch as one engine does.
        fleet.create_relation("S", ["A"], [Domain.of_size(10)])
        query = JoinQuery.parse(["R", "S"], ["R.A = S.A"])
        fleet.register_query("q", query, method="sample", probability=1.0)
        fleet.ingest_batch("R", np.array([[0], [2], [3]]))
        with pytest.raises(ValueError, match=r"deleting tuple \(1,\) that R does not hold"):
            fleet.ingest_batch("R", np.array([[0], [2], [1]]), OpKind.DELETE)
        assert sum(shard_counts(fleet)) == fleet.total_count("R") == 3


class TestRefusedDelete:
    """A delete a ``sample`` query cannot take changes nothing, anywhere."""

    DELETES = {
        "ingest_batch": lambda target: target.ingest_batch("R", [[2]], OpKind.DELETE),
        "delete": lambda target: target.delete("R", [2]),
        "process_batch": lambda target: target.process_batch(
            "R", [StreamOp((5,), OpKind.INSERT), StreamOp((2,), OpKind.DELETE)]
        ),
    }

    @staticmethod
    def with_sample(target):
        target.create_relation("S", ["A"], [Domain.of_size(10)])
        query = JoinQuery.parse(["R", "S"], ["R.A = S.A"])
        target.register_query("cos", query, method="cosine", budget=8)
        target.register_query("samp", query, method="sample", probability=1.0)
        target.register_query("hist", query, method="histogram", budget=4)
        for rel in ("R", "S"):
            target.ingest_batch(rel, np.array([[0], [2], [3]]))
        return target

    @pytest.mark.parametrize("entry", list(DELETES))
    def test_one_engine_refuses_before_any_change(self, entry):
        engine = self.with_sample(build(StreamEngine()))
        before = engine.answers()
        with pytest.raises(NotImplementedError, match="Bernoulli"):
            self.DELETES[entry](engine)
        assert engine.relations["R"].count == 3
        assert engine.answers() == before
        assert before["hist"] == pytest.approx(11 / 6)

    def test_fleet_refuses_before_any_shard_sees_it(self, fleet):
        engine = self.with_sample(build(StreamEngine()))
        self.with_sample(fleet)
        before = fleet.answers()
        for target in (engine, fleet):
            with pytest.raises(NotImplementedError, match="Bernoulli"):
                target.ingest_batch("R", np.array([[2]]), OpKind.DELETE)
        assert fleet.total_count("R") == fleet.merged_counts("R").sum() == 3
        np.testing.assert_array_equal(fleet.merged_counts("R"), engine.relations["R"].counts)
        assert fleet.answers() == before

    def test_fault_isolation_quarantines_the_sample_instead(self, fleet):
        engine = self.with_sample(build(StreamEngine()))
        self.with_sample(fleet)
        for target in (engine, fleet):
            target.enable_fault_isolation("nan")
            target.ingest_batch("R", np.array([[2]]), OpKind.DELETE)
        assert list(engine.degraded_queries()) == ["samp"]
        assert fleet.degraded_queries() == {"samp": {-1: engine.degraded_queries()["samp"]}}
        assert fleet.total_count("R") == fleet.merged_counts("R").sum() == 2
        assert fleet.answer("hist") == engine.answer("hist") == pytest.approx(7 / 6)


class TestRoutingByDomainIndex:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
    def test_one_value_lands_on_one_shard_in_any_dtype(self, dtype):
        with build(ShardedStreamEngine(num_shards=2)) as fleet:
            for value in range(10):
                fleet.ingest_batch("R", np.array([[value]], dtype=np.int64))
                fleet.ingest_batch("R", np.array([[value]], dtype=dtype))
                holders = [count for count in shard_counts(fleet) if count]
                assert holders == [2], value
                fleet.delete("R", [value])
                fleet.ingest_batch("R", np.array([[value]], dtype=dtype), OpKind.DELETE)
                assert fleet.total_count("R") == 0

    def test_float_insert_then_int_delete(self, fleet):
        fleet.ingest_batch("R", [[3.0]])
        fleet.delete("R", [3])
        assert fleet.total_count("R") == 0
