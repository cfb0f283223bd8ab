"""A FlakyObserver forwards healthy calls to the engine observer it wraps."""

from repro.core.normalization import Domain
from repro.resilience.chaos import FlakyObserver
from repro.streams.engine import StreamEngine
from repro.streams.queries import JoinQuery
from repro.streams.tuples import OpKind, StreamOp


def test_healthy_per_op_and_batch_calls_reach_the_inner_observer():
    engine = StreamEngine()
    for name in ("R1", "R2"):
        engine.create_relation(name, ["A"], [Domain.of_size(8)])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    engine.register_query("q", query, method="histogram", budget=4)
    relation, inner = engine._queries["q"].attachments[0]
    flaky = FlakyObserver(inner=inner, fail_on=10)
    flaky.on_op(relation, StreamOp((3,)))
    flaky.on_ops(relation, relation.rows_array([(5,), (5,)]), OpKind.INSERT)
    assert inner.synopsis.count == 3
