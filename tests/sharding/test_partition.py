"""Deterministic hash partitioning: stability, coverage, order preservation."""

import numpy as np
import pytest

from repro.sharding.partition import hash_values, shard_of_values, split_rows


class TestHashValues:
    def test_deterministic_across_calls(self):
        values = np.arange(1000)
        np.testing.assert_array_equal(hash_values(values), hash_values(values))

    def test_same_value_same_hash_regardless_of_position(self):
        h = hash_values(np.array([7, 3, 7, 7, 3]))
        assert h[0] == h[2] == h[3]
        assert h[1] == h[4]

    def test_object_columns_hash_by_string(self):
        # Fleets route on domain indices; a raw value column is refused.
        values = np.array(["red", "green", "red"], dtype=object)
        with pytest.raises(ValueError, match="integer column"):
            hash_values(values)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-d"):
            hash_values(np.zeros((3, 2), dtype=np.int64))

    def test_spreads_consecutive_integers(self):
        # splitmix64 decorrelates consecutive keys: no shard should end up
        # with a wildly disproportionate share of 0..N-1.
        shards = shard_of_values(np.arange(4000), 4)
        counts = np.bincount(shards, minlength=4)
        assert counts.min() > 700


class TestShardOfValues:
    def test_single_shard_routes_everything_to_zero(self):
        assert shard_of_values(np.arange(50), 1).sum() == 0

    def test_indices_in_range(self):
        shards = shard_of_values(np.arange(500), 7)
        assert shards.min() >= 0 and shards.max() < 7

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_of_values(np.arange(5), 0)


class TestSplitRows:
    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 100, size=(500, 3))
        parts = split_rows(rows, rows[:, 1], num_shards=4)
        assert sum(p.shape[0] for p in parts) == 500
        merged = np.concatenate(parts)
        # same multiset of rows
        order = lambda a: a[np.lexsort(a.T[::-1])]  # noqa: E731
        np.testing.assert_array_equal(order(merged), order(rows))

    def test_same_key_lands_on_same_shard(self):
        rows = np.column_stack([np.arange(200), np.repeat(np.arange(20), 10)])
        parts = split_rows(rows, rows[:, 1], num_shards=5)
        seen = {}
        for shard, part in enumerate(parts):
            for key in np.unique(part[:, 1]):
                assert seen.setdefault(int(key), shard) == shard

    def test_arrival_order_preserved_within_shard(self):
        # Column 0 encodes arrival order; each shard's slice must be sorted.
        rng = np.random.default_rng(1)
        rows = np.column_stack([np.arange(300), rng.integers(0, 50, 300)])
        for part in split_rows(rows, rows[:, 1], num_shards=3):
            assert np.all(np.diff(part[:, 0]) > 0)

    def test_bad_axis_rejected(self):
        # One partition key per row: a key column of another length is refused.
        with pytest.raises(ValueError, match="one partition key per row"):
            split_rows(np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64), num_shards=2)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="row batch"):
            split_rows(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), num_shards=2)
