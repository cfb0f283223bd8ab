"""The sharding correctness property: sharded answers == single-engine answers.

Hypothesis drives random insert/delete streams through a single
:class:`StreamEngine` and a :class:`ShardedStreamEngine` with 1–8 shards,
with every one of the seven estimation methods registered, and asserts
the answers agree: *bit-identical* for the integer-valued and
coordinator-resident methods (sketches, histogram, sample, partitioned
sketch, wavelet), float-tolerance for cosine (and the cosine range/band
kinds), whose merged coefficients are summed in a different order but
read by a continuous estimator.

Bernoulli samples reject deletions by design (the paper's section 2
argument), so delete-mix streams register every method *except*
``sample`` — matching what a single engine supports.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.sharding.merge import MERGEABLE_METHODS
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

NA, NB = 16, 12
BUDGET = 12
QUERY = JoinQuery.parse(["R", "S"], ["R.B = S.B"])

ALL_METHODS = [
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
]
#: Methods whose sharded answer must equal the single-engine answer
#: bit-for-bit: sketch atoms and bucket counts are integer-valued floats and
#: Haar details int64 (order-independent sums), and the coordinator methods
#: replay the exact arrival order.
EXACT_METHODS = [
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
]
#: Cosine coefficients are irrational-basis float sums; merging reorders
#: the summation, so these match to tolerance only.
FLOAT_METHODS = ["cosine"]
#: Bernoulli samples cannot process deletions (paper section 2).
DELETE_SAFE_METHODS = [m for m in ALL_METHODS if m != "sample"]


def methods_for(with_deletes):
    return DELETE_SAFE_METHODS if with_deletes else ALL_METHODS


def build_single(seed=0, methods=ALL_METHODS):
    engine = StreamEngine(seed=seed)
    engine.create_relation("R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)])
    engine.create_relation("S", ["B"], [Domain.of_size(NB)])
    for method in methods:
        engine.register_query(f"q_{method}", QUERY, method=method, budget=BUDGET)
    engine.register_range_query("q_range", "R", "A", 2, 11, budget=BUDGET)
    engine.register_band_query("q_band", ("R", "B"), ("S", "B"), width=2, budget=BUDGET)
    return engine


def build_sharded(num_shards, seed=0, executor="serial", methods=ALL_METHODS):
    engine = ShardedStreamEngine(num_shards=num_shards, seed=seed, executor=executor)
    engine.create_relation(
        "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)], partition_by="B"
    )
    engine.create_relation("S", ["B"], [Domain.of_size(NB)])
    for method in methods:
        engine.register_query(f"q_{method}", QUERY, method=method, budget=BUDGET)
    engine.register_range_query("q_range", "R", "A", 2, 11, budget=BUDGET)
    engine.register_band_query("q_band", ("R", "B"), ("S", "B"), width=2, budget=BUDGET)
    return engine


def make_stream(data_seed, n_batches, with_deletes):
    """A valid random op stream: inserts, plus deletes of live tuples only."""
    rng = np.random.default_rng(data_seed)
    live = {"R": [], "S": []}
    ops = []
    for i in range(n_batches):
        rel = "R" if i % 2 == 0 else "S"
        if with_deletes and len(live[rel]) >= 4 and rng.random() < 0.4:
            k = int(rng.integers(1, min(len(live[rel]), 15) + 1))
            picked = rng.choice(len(live[rel]), size=k, replace=False)
            rows = np.array([live[rel][j] for j in picked])
            keep = np.ones(len(live[rel]), dtype=bool)
            keep[picked] = False
            live[rel] = [r for r, k_ in zip(live[rel], keep) if k_]
            ops.append((rel, rows, OpKind.DELETE))
        else:
            size = int(rng.integers(8, 50))
            if rel == "R":
                rows = np.column_stack(
                    [rng.integers(0, NA, size), rng.integers(0, NB, size)]
                )
            else:
                rows = rng.integers(0, NB, size).reshape(-1, 1)
            live[rel].extend(tuple(r) for r in rows.tolist())
            ops.append((rel, rows, OpKind.INSERT))
    return ops


def feed(engine, ops):
    for rel, rows, kind in ops:
        engine.ingest_batch(rel, rows, kind)


def answer_or_error(engine, name):
    """An answer, or a marker for the error an empty synopsis raises."""
    try:
        return engine.answer(name)
    except Exception as exc:
        return ("raised", type(exc).__name__)


def same_value(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_answers(single, sharded, methods=ALL_METHODS):
    for method in EXACT_METHODS:
        if method not in methods:
            continue
        a = answer_or_error(single, f"q_{method}")
        b = answer_or_error(sharded, f"q_{method}")
        assert same_value(a, b), (method, a, b)
    for name in [f"q_{m}" for m in FLOAT_METHODS] + ["q_range", "q_band"]:
        a = answer_or_error(single, name)
        b = answer_or_error(sharded, name)
        if isinstance(a, tuple) or isinstance(b, tuple):
            assert a == b, (name, a, b)
        else:
            assert b == pytest.approx(a, rel=1e-9, abs=1e-6), (name, a, b)
    assert sharded.exact_answer("q_cosine") == single.exact_answer("q_cosine")


class TestShardedParityProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 8),
        n_batches=st.integers(1, 8),
        with_deletes=st.booleans(),
    )
    def test_all_methods_match_single_engine(
        self, data_seed, num_shards, n_batches, with_deletes
    ):
        ops = make_stream(data_seed, n_batches, with_deletes)
        methods = methods_for(with_deletes)
        single = build_single(methods=methods)
        feed(single, ops)
        sharded = build_sharded(num_shards, methods=methods)
        feed(sharded, ops)
        assert_same_answers(single, sharded, methods)
        for rel in ("R", "S"):
            assert sharded.total_count(rel) == single.relations[rel].count
        sharded.close()

    @settings(max_examples=10, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        num_shards=st.integers(2, 6),
    )
    def test_batch_framing_is_irrelevant_under_sharding(self, data_seed, num_shards):
        """One big batch vs row-at-a-time batches: identical final state."""
        ops = make_stream(data_seed, n_batches=4, with_deletes=True)
        coarse = build_sharded(num_shards, methods=DELETE_SAFE_METHODS)
        feed(coarse, ops)
        fine = build_sharded(num_shards, methods=DELETE_SAFE_METHODS)
        for rel, rows, kind in ops:
            for row in rows:
                fine.ingest_batch(rel, row.reshape(1, -1), kind)
        # `sample` rejects deletes
        for method in EXACT_METHODS:
            if method == "sample":
                continue
            a = answer_or_error(coarse, f"q_{method}")
            b = answer_or_error(fine, f"q_{method}")
            assert same_value(a, b), (method, a, b)
        for name in [f"q_{m}" for m in FLOAT_METHODS] + ["q_range", "q_band"]:
            a = answer_or_error(coarse, name)
            b = answer_or_error(fine, name)
            if isinstance(a, tuple) or isinstance(b, tuple):
                assert a == b, (name, a, b)
            else:
                assert b == pytest.approx(a, rel=1e-9, abs=1e-6), (name, a, b)
        coarse.close()
        fine.close()

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**16), num_shards=st.integers(1, 8))
    def test_registration_after_history_replays_identically(
        self, data_seed, num_shards
    ):
        """Queries registered mid-stream replay shard-local history correctly."""
        ops = make_stream(data_seed, n_batches=5, with_deletes=False)
        head, tail = ops[:3], ops[3:]
        single = StreamEngine(seed=0)
        single.create_relation(
            "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)]
        )
        single.create_relation("S", ["B"], [Domain.of_size(NB)])
        sharded = ShardedStreamEngine(num_shards=num_shards, seed=0)
        sharded.create_relation(
            "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)], partition_by="B"
        )
        sharded.create_relation("S", ["B"], [Domain.of_size(NB)])
        feed(single, head)
        feed(sharded, head)
        registered = []
        for method in ALL_METHODS:
            # Degenerate pilots make some registrations fail (e.g. the
            # partitioned sketch's equi-mass boundaries on concentrated
            # data); parity means both engines reject identically.
            try:
                single.register_query(
                    f"q_{method}", QUERY, method=method, budget=BUDGET
                )
                single_ok = None
            except Exception as exc:
                single_ok = type(exc).__name__
            try:
                sharded.register_query(
                    f"q_{method}", QUERY, method=method, budget=BUDGET
                )
                sharded_ok = None
            except Exception as exc:
                sharded_ok = type(exc).__name__
            assert single_ok == sharded_ok, (method, single_ok, sharded_ok)
            if single_ok is None:
                registered.append(method)
        single.register_range_query("q_range", "R", "A", 2, 11, budget=BUDGET)
        sharded.register_range_query("q_range", "R", "A", 2, 11, budget=BUDGET)
        single.register_band_query(
            "q_band", ("R", "B"), ("S", "B"), width=2, budget=BUDGET
        )
        sharded.register_band_query(
            "q_band", ("R", "B"), ("S", "B"), width=2, budget=BUDGET
        )
        feed(single, tail)
        feed(sharded, tail)
        assert_same_answers(single, sharded, registered)
        sharded.close()


class TestExecutorParity:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_answer_identically(self, executor):
        ops = make_stream(99, n_batches=6, with_deletes=True)
        single = build_single(methods=DELETE_SAFE_METHODS)
        feed(single, ops)
        with build_sharded(3, executor=executor, methods=DELETE_SAFE_METHODS) as sharded:
            feed(sharded, ops)
            assert_same_answers(single, sharded, DELETE_SAFE_METHODS)


class TestPartitionChoiceIrrelevance:
    def test_partition_attribute_does_not_change_answers(self):
        ops = make_stream(7, n_batches=6, with_deletes=True)
        by_b = build_sharded(4, methods=DELETE_SAFE_METHODS)
        feed(by_b, ops)
        by_a = ShardedStreamEngine(num_shards=4, seed=0)
        by_a.create_relation(
            "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)], partition_by="A"
        )
        by_a.create_relation("S", ["B"], [Domain.of_size(NB)])
        for method in DELETE_SAFE_METHODS:
            by_a.register_query(f"q_{method}", QUERY, method=method, budget=BUDGET)
        by_a.register_range_query("q_range", "R", "A", 2, 11, budget=BUDGET)
        by_a.register_band_query("q_band", ("R", "B"), ("S", "B"), width=2, budget=BUDGET)
        feed(by_a, ops)
        for method in EXACT_METHODS:
            if method == "sample":
                continue
            assert by_a.answer(f"q_{method}") == by_b.answer(f"q_{method}")
        for name in [f"q_{m}" for m in FLOAT_METHODS] + ["q_range", "q_band"]:
            assert by_a.answer(name) == pytest.approx(by_b.answer(name), rel=1e-9)
        by_a.close()
        by_b.close()


#: The linear methods: identical queries share one synopsis per engine.
SHARED_METHODS = sorted(MERGEABLE_METHODS)


def register_duplicates(engine):
    """Every shared method twice under one spec, with bounds, plus two ranges."""
    for method in SHARED_METHODS:
        for copy in ("a", "b"):
            engine.register_query(
                f"{method}_{copy}", QUERY, method=method, budget=BUDGET, bounds=True
            )
    for copy in ("a", "b"):
        engine.register_range_query(f"range_{copy}", "R", "A", 2, 11, budget=BUDGET)
    return engine


class TestDuplicateQueries:
    @settings(max_examples=10, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 6),
        with_deletes=st.booleans(),
    )
    def test_duplicate_queries_match_single_engine(self, data_seed, num_shards, with_deletes):
        ops = make_stream(data_seed, n_batches=6, with_deletes=with_deletes)
        single = StreamEngine(seed=0)
        single.create_relation("R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)])
        single.create_relation("S", ["B"], [Domain.of_size(NB)])
        register_duplicates(single)
        feed(single, ops)
        with ShardedStreamEngine(num_shards=num_shards, seed=0) as sharded:
            sharded.create_relation(
                "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)], partition_by="B"
            )
            sharded.create_relation("S", ["B"], [Domain.of_size(NB)])
            register_duplicates(sharded)
            feed(sharded, ops)
            for name in [*SHARED_METHODS, "range"]:
                a = answer_or_error(single, f"{name}_a")
                assert same_value(answer_or_error(single, f"{name}_b"), a), name
                b = answer_or_error(sharded, f"{name}_a")
                assert same_value(answer_or_error(sharded, f"{name}_b"), b), name
                if name in ("cosine", "range") and not isinstance(a, tuple):
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-6), (name, a, b)
                else:
                    assert same_value(a, b), (name, a, b)
            for method in SHARED_METHODS:
                bound = single.estimate(f"{method}_a", mode="upper_bound")
                assert sharded.estimate(f"{method}_b", mode="upper_bound") == bound


class TestUnregister:
    """A fleet query dropped mid-stream and registered again under the same
    name answers exactly as the single engine doing the same."""

    @pytest.mark.parametrize("method", ["cosine", "basic_sketch", "sample", "histogram"])
    def test_reregistered_query_matches_single_engine(self, method):
        name = f"q_{method}"
        ops = make_stream(data_seed=3, n_batches=12, with_deletes=False)
        single = build_single(methods=[method])
        with build_sharded(2, methods=[method]) as sharded:
            for engine in (single, sharded):
                feed(engine, ops[:4])
                engine.unregister_query(name)
                assert name not in engine.query_names()
                feed(engine, ops[4:8])
                engine.register_query(name, QUERY, method=method, budget=BUDGET)
                feed(engine, ops[8:])
            assert sharded.exact_answer(name) == single.exact_answer(name)
            if method in FLOAT_METHODS:
                assert sharded.answer(name) == pytest.approx(single.answer(name), rel=1e-9)
            else:
                assert sharded.answer(name) == single.answer(name)
