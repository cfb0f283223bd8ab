"""The soundness property: ``exact <= upper_bound``, always.

Hypothesis drives random insert/delete streams through engines with
every supported estimation method registered under ``bounds=True`` and
asserts the bound contract at every probe point:

* the guaranteed upper bound dominates the exact join size,
* the clamped answer is ``min(estimate, upper_bound)`` and never
  exceeds the bound,
* on insert-only streams the bound is monotone nondecreasing,
* and the contract survives a shard merge and a checkpoint restore
  bit-for-bit (the ISSUE's acceptance criterion).

2-way and 3-way joins are exercised separately because the histogram,
wavelet and partitioned-sketch baselines support single-join queries
only, and ``sample`` cannot process deletions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

NA, NB = 16, 12
BUDGET = 12

TWO_WAY = JoinQuery.parse(["R", "S"], ["R.B = S.B"])
THREE_WAY = JoinQuery.parse(
    ["R", "S", "T"], ["R.A = S.A", "S.B = T.B"]
)

ALL_METHODS = [
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
]
#: The histogram/wavelet/partitioned baselines support one join only.
MULTI_JOIN_METHODS = ["cosine", "basic_sketch", "skimmed_sketch", "sample"]
#: Bernoulli samples cannot process deletions (paper section 2).
DELETE_SAFE = [m for m in ALL_METHODS if m != "sample"]


def methods_for(arity, with_deletes):
    methods = ALL_METHODS if arity == 2 else MULTI_JOIN_METHODS
    return [m for m in methods if m in DELETE_SAFE] if with_deletes else methods


def build_engine(arity, methods, seed=0, sharded=0, executor="serial"):
    if sharded:
        engine = ShardedStreamEngine(
            num_shards=sharded, seed=seed, executor=executor
        )
    else:
        engine = StreamEngine(seed=seed)
    if arity == 2:
        engine.create_relation(
            "R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)]
        )
        engine.create_relation("S", ["B"], [Domain.of_size(NB)])
        query = TWO_WAY
    else:
        engine.create_relation("R", ["A"], [Domain.of_size(NA)])
        engine.create_relation(
            "S", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)]
        )
        engine.create_relation("T", ["B"], [Domain.of_size(NB)])
        query = THREE_WAY
    for method in methods:
        engine.register_query(
            f"q_{method}", query, method=method, budget=BUDGET, bounds=True
        )
    return engine


def relation_schemas(arity):
    if arity == 2:
        return {"R": (NA, NB), "S": (NB,)}
    return {"R": (NA,), "S": (NA, NB), "T": (NB,)}


def make_stream(arity, data_seed, n_batches, with_deletes):
    """A valid random op stream: inserts, plus deletes of live tuples only.

    Every relation leads with one insert batch so no estimator ever
    answers over a never-fed synopsis.
    """
    rng = np.random.default_rng(data_seed)
    schemas = relation_schemas(arity)
    names = list(schemas)
    live = {name: [] for name in names}
    ops = []

    def insert(rel, size):
        sizes = schemas[rel]
        rows = np.column_stack(
            [rng.integers(0, domain, size) for domain in sizes]
        )
        live[rel].extend(tuple(r) for r in rows.tolist())
        ops.append((rel, rows, OpKind.INSERT))

    for rel in names:
        insert(rel, int(rng.integers(4, 20)))
    for i in range(n_batches):
        rel = names[i % len(names)]
        if with_deletes and len(live[rel]) >= 4 and rng.random() < 0.4:
            # delete live tuples only, and never the last one: estimators
            # are entitled to refuse an empty relation, which is not the
            # property under test here
            k = int(rng.integers(1, min(len(live[rel]) - 1, 15) + 1))
            picked = rng.choice(len(live[rel]), size=k, replace=False)
            rows = np.array([live[rel][j] for j in picked])
            keep = np.ones(len(live[rel]), dtype=bool)
            keep[picked] = False
            live[rel] = [r for r, k_ in zip(live[rel], keep) if k_]
            ops.append((rel, rows, OpKind.DELETE))
        else:
            insert(rel, int(rng.integers(8, 40)))
    return ops


def feed(engine, ops):
    for rel, rows, kind in ops:
        engine.ingest_batch(rel, rows, kind)


def assert_sound(engine, methods):
    """The bound contract for every registered method, at one probe point."""
    for method in methods:
        name = f"q_{method}"
        exact = engine.exact_answer(name)
        report = engine.bound_report(name)
        bound = report["upper_bound"]
        assert exact <= bound, (method, exact, bound)
        assert report["clamped"] <= bound, (method, report)
        expected = min(report["estimate"], bound)
        assert report["clamped"] == expected, (method, report)
        assert report["clamp_fired"] == (report["estimate"] > bound), (
            method,
            report,
        )
        # the mode dispatch must agree with the report
        assert engine.estimate(name, mode="upper_bound") == bound
        assert engine.estimate(name, mode="clamped") == report["clamped"]


class TestSoundnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        n_batches=st.integers(0, 8),
        with_deletes=st.booleans(),
    )
    def test_two_way_bound_dominates_exact(
        self, data_seed, n_batches, with_deletes
    ):
        methods = methods_for(2, with_deletes)
        engine = build_engine(2, methods)
        feed(engine, make_stream(2, data_seed, n_batches, with_deletes))
        assert_sound(engine, methods)

    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        n_batches=st.integers(0, 8),
        with_deletes=st.booleans(),
    )
    def test_three_way_bound_dominates_exact(
        self, data_seed, n_batches, with_deletes
    ):
        methods = methods_for(3, with_deletes)
        engine = build_engine(3, methods)
        feed(engine, make_stream(3, data_seed, n_batches, with_deletes))
        assert_sound(engine, methods)

    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        arity=st.sampled_from([2, 3]),
    )
    def test_bound_is_monotone_on_insert_only_streams(self, data_seed, arity):
        # every candidate is a product of nondecreasing norms over a
        # fixed candidate set, so the min never goes down under inserts
        engine = build_engine(arity, ["cosine"])
        ops = make_stream(arity, data_seed, n_batches=6, with_deletes=False)
        previous = engine.estimate("q_cosine", mode="upper_bound")
        for rel, rows, kind in ops:
            engine.ingest_batch(rel, rows, kind)
            current = engine.estimate("q_cosine", mode="upper_bound")
            assert current >= previous * (1 - 1e-12), (previous, current)
            previous = current

    @settings(max_examples=10, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 8),
        with_deletes=st.booleans(),
    )
    def test_soundness_survives_shard_merge(
        self, data_seed, num_shards, with_deletes
    ):
        methods = methods_for(2, with_deletes)
        ops = make_stream(2, data_seed, n_batches=5, with_deletes=with_deletes)
        single = build_engine(2, methods)
        feed(single, ops)
        sharded = build_engine(2, methods, sharded=num_shards)
        feed(sharded, ops)
        try:
            assert_sound(sharded, methods)
            # degree vectors are linear in the stream, so the merged
            # bound is *identical* to the unsharded bound, not just sound
            for method in methods:
                a = single.estimate(f"q_{method}", mode="upper_bound")
                b = sharded.estimate(f"q_{method}", mode="upper_bound")
                assert a == b, (method, a, b)
        finally:
            sharded.close()

    @settings(max_examples=10, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        split=st.integers(0, 5),
        with_deletes=st.booleans(),
    )
    def test_soundness_survives_checkpoint_restore(
        self, tmp_path_factory, data_seed, split, with_deletes
    ):
        methods = methods_for(2, with_deletes)
        ops = make_stream(2, data_seed, n_batches=5, with_deletes=with_deletes)
        cut = min(split, len(ops))
        engine = build_engine(2, methods)
        feed(engine, ops[:cut])
        path = tmp_path_factory.mktemp("sound") / "bounds.ckpt"
        engine.save_checkpoint(path)
        restored = StreamEngine.load_checkpoint(path)
        feed(engine, ops[cut:])
        feed(restored, ops[cut:])
        assert_sound(restored, methods)
        for method in methods:
            a = engine.bound_report(f"q_{method}")
            b = restored.bound_report(f"q_{method}")
            assert a == b, (method, a, b)
