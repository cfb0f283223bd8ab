"""Rows that mix categorical strings with integers, through every ingest path.

numpy turns a row such as ``("austin", 30)`` into strings, so an integer
attribute would see ``"30"``.  Every path must keep each value's own type:
per-op ingest, ``insert_rows``, ``process_batch``, a log replay (whose
format keeps integer tokens as ints), a sharded fleet and dead-letter
validation.
"""

import io

import numpy as np
import pytest

from repro.core.normalization import Domain, as_rows
from repro.core.synopsis import CosineSynopsis
from repro.sharding.engine import ShardedStreamEngine
from repro.streams.engine import StreamEngine
from repro.streams.io import replay_into, write_ops
from repro.streams.queries import JoinQuery
from repro.streams.relation import StreamRelation
from repro.streams.tuples import OpKind, StreamOp

CITIES = ["austin", "boston", "chicago", "denver"]
RELATIONS = ("R1", "R2")


def _setup(engine):
    for name in RELATIONS:
        engine.create_relation(
            name,
            ["city", "age"],
            [Domain.categorical(CITIES), Domain.integer_range(18, 40)],
        )
    both = JoinQuery.parse(list(RELATIONS), ["R1.city = R2.city", "R1.age = R2.age"])
    age = JoinQuery.parse(list(RELATIONS), ["R1.age = R2.age"])
    engine.register_query("cosine", both, method="cosine", budget=64, bounds=True)
    engine.register_query("agms", age, method="basic_sketch", budget=64, bounds=True)
    engine.register_query("histogram", age, method="histogram", budget=8, bounds=True)


def _ops(seed):
    rng = np.random.default_rng(seed)
    return {
        name: [
            StreamOp((CITIES[int(rng.integers(4))], int(rng.integers(18, 41))))
            for _ in range(50)
        ]
        for name in RELATIONS
    }


def _per_op(engine, ops):
    for name, stream in ops.items():
        for op in stream:
            engine.process(name, op)


def _insert_rows(engine, ops):
    for name, stream in ops.items():
        engine.relations[name].insert_rows([op.values for op in stream])


def _process_batch(engine, ops):
    for name, stream in ops.items():
        engine.process_batch(name, stream)


def _replay(engine, ops):
    for name, stream in ops.items():
        log = io.StringIO()
        write_ops(log, stream)
        log.seek(0)
        replay_into(engine.relations[name], log)


def _report(engine):
    counts = {name: engine.relations[name].counts.copy() for name in RELATIONS}
    answers = engine.answers()
    bounds = {name: engine.estimate(name, mode="upper_bound") for name in answers}
    return counts, answers, bounds


@pytest.mark.parametrize("seed", [0, 1])
def test_every_ingest_path_agrees(seed):
    ops = _ops(seed)
    reports = {}
    for path in (_per_op, _insert_rows, _process_batch, _replay):
        engine = StreamEngine(seed=3)
        _setup(engine)
        path(engine, ops)
        reports[path.__name__] = _report(engine)
    with ShardedStreamEngine(num_shards=2, executor="serial", seed=3) as fleet:
        _setup(fleet)
        for name, stream in ops.items():
            for op in stream:
                fleet.insert(name, op.values)
        answers = fleet.answers()
        fleet_bounds = {name: fleet.estimate(name, mode="upper_bound") for name in answers}
        fleet_counts = {name: fleet.merged_counts(name) for name in RELATIONS}
    counts, expected, bounds = reports["_per_op"]
    for path, (other_counts, other_answers, other_bounds) in reports.items():
        for name in RELATIONS:
            np.testing.assert_array_equal(other_counts[name], counts[name], err_msg=path)
        assert other_answers == pytest.approx(expected, rel=1e-9), path
        assert other_bounds == bounds, path
    for name in RELATIONS:
        np.testing.assert_array_equal(fleet_counts[name], counts[name])
    assert answers == pytest.approx(expected, rel=1e-9)
    assert fleet_bounds == bounds
    assert expected["agms"] != 0 and expected["cosine"] > 0


def test_dead_lettering_keeps_valid_mixed_rows():
    engine = StreamEngine(seed=3)
    _setup(engine)
    engine.enable_dead_lettering()
    engine.ingest_batch("R1", [("austin", 30), ("boston", 99), ("paris", 20)])
    assert engine.relations["R1"].count == 1
    assert [(d.row, d.reason) for d in engine.dead_letters] == [
        (("boston", 99), "out_of_domain"),
        (("paris", 20), "out_of_domain"),
    ]


def test_non_string_categories_ingest_in_batches():
    relation = StreamRelation("R", ["A"], [Domain.categorical([1.5, "a"])])
    relation.insert_rows([(1.5,), ("a",), ("a",)])
    relation.process_batch([StreamOp((1.5,)), StreamOp(("a",), OpKind.DELETE)])
    relation.insert((1.5,))
    assert relation.counts.tolist() == [3, 1]


def test_cosine_synopsis_takes_mixed_tuples():
    domains = [Domain.categorical(CITIES), Domain.integer_range(18, 40)]
    per_tuple, batched = CosineSynopsis(domains, budget=32), CosineSynopsis(domains, budget=32)
    rows = [("austin", 30), ("denver", 18), ("austin", 30)]
    for row in rows:
        per_tuple.insert(row)
    batched.insert_batch(rows)
    np.testing.assert_allclose(per_tuple.state_dict()["sums"], batched.state_dict()["sums"])
    assert per_tuple.count == batched.count == 3


def test_as_rows_keeps_types_only_where_numpy_would_not():
    mixed = as_rows([("austin", 30)])
    assert mixed.dtype == object and mixed[0, 1] == 30 and isinstance(mixed[0, 1], int)
    assert as_rows([("austin", "boston")]).dtype.kind == "U"
    assert as_rows([(1, 2)]).dtype == np.int64
    assert as_rows([[1.5], ["a"]])[0, 0] == 1.5
