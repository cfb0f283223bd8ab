"""Sharded bounds == unsharded bounds, bit for bit.

Degree statistics are exact ``int64`` frequency vectors — linear
functions of the input multiset — so per-shard vectors summed by
:func:`repro.sharding.merge.merge_observer_states` reproduce the
unsharded vector exactly, and the merged bound is *identical* to a
single engine's, not merely sound.  These tests pin that equality down
for 1–8 shards, all three executors, both partitioned and coordinator
resident methods, and degraded fleets.
"""

import math

import numpy as np
import pytest

from repro.sharding.merge import COORDINATOR_METHODS

from .test_soundness import (
    ALL_METHODS,
    assert_sound,
    build_engine,
    feed,
    make_stream,
    methods_for,
)


def assert_same_bounds(single, sharded, methods):
    for method in methods:
        name = f"q_{method}"
        a = single.bound_report(name)
        b = sharded.bound_report(name)
        assert a is not None and b is not None
        assert b["upper_bound"] == a["upper_bound"], (method, a, b)
        # estimates agree bit-for-bit except cosine's reordered float
        # sums, so compare the full report with the parity-test tolerance
        for key in ("estimate", "clamped"):
            assert b[key] == pytest.approx(a[key], rel=1e-9, abs=1e-6), (
                method,
                a,
                b,
            )
        assert b["clamp_fired"] == a["clamp_fired"], (method, a, b)


class TestShardCountParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_merged_bound_identical_across_shard_counts(self, num_shards):
        ops = make_stream(2, data_seed=num_shards, n_batches=6, with_deletes=True)
        methods = methods_for(2, with_deletes=True)
        single = build_engine(2, methods)
        feed(single, ops)
        with build_engine(2, methods, sharded=num_shards) as sharded:
            feed(sharded, ops)
            assert_same_bounds(single, sharded, methods)
            assert_sound(sharded, methods)

    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_three_way_bounds_merge_identically(self, num_shards):
        ops = make_stream(3, data_seed=7, n_batches=6, with_deletes=True)
        methods = methods_for(3, with_deletes=True)
        single = build_engine(3, methods)
        feed(single, ops)
        with build_engine(3, methods, sharded=num_shards) as sharded:
            feed(sharded, ops)
            assert_same_bounds(single, sharded, methods)


class TestExecutorParity:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_every_executor_reports_the_same_bounds(self, executor):
        ops = make_stream(2, data_seed=3, n_batches=5, with_deletes=True)
        methods = methods_for(2, with_deletes=True)
        single = build_engine(2, methods)
        feed(single, ops)
        with build_engine(2, methods, sharded=3, executor=executor) as sharded:
            feed(sharded, ops)
            assert_same_bounds(single, sharded, methods)


class TestCoordinatorMethods:
    def test_coordinator_resident_queries_carry_bounds(self):
        # sample (and, on 2-way joins, partitioned_sketch) live
        # on the coordinator's full-stream replica; their bounds must
        # still match the single engine exactly
        coordinator = [m for m in ALL_METHODS if m in COORDINATOR_METHODS]
        assert "sample" in coordinator
        ops = make_stream(2, data_seed=11, n_batches=6, with_deletes=False)
        single = build_engine(2, ALL_METHODS)
        feed(single, ops)
        with build_engine(2, ALL_METHODS, sharded=4) as sharded:
            feed(sharded, ops)
            assert_same_bounds(single, sharded, ALL_METHODS)
            for method in coordinator:
                a = single.estimate(f"q_{method}", mode="upper_bound")
                b = sharded.estimate(f"q_{method}", mode="upper_bound")
                assert a == b, method


class TestDegradedFleets:
    def test_degraded_shard_reports_nan_bound(self):
        ops = make_stream(2, data_seed=5, n_batches=4, with_deletes=False)
        with build_engine(2, ["cosine"], sharded=2) as sharded:
            sharded.enable_fault_isolation("nan")
            feed(sharded, ops)

            def exploding(relation, rows, kind):
                raise RuntimeError("synopsis exploded")

            shard = sharded._executor.workers[0].engine
            _, observer = shard._queries["q_cosine"].attachments[0]
            observer.on_ops = exploding
            shard.ingest_batch("R", np.array([[1, 2]]))

            report = sharded.bound_report("q_cosine")
            assert math.isnan(report["upper_bound"])
            assert report["clamp_fired"] is False
            assert math.isnan(sharded.estimate("q_cosine", mode="upper_bound"))

    def test_plain_queries_still_report_none(self):
        from repro.streams import JoinQuery

        query = JoinQuery.parse(["R", "S"], ["R.B = S.B"])
        with build_engine(2, ["cosine"], sharded=2) as sharded:
            sharded.register_query("plain", query, method="basic_sketch", budget=8)
            assert sharded.bound_report("plain") is None
            with pytest.raises(ValueError, match="bounds=True"):
                sharded.estimate("plain", mode="upper_bound")
