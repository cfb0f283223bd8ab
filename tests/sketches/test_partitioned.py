"""Tests for Dobra-style domain-partitioned sketches."""

import numpy as np
import pytest

from repro.sketches.basic import AGMSSketch, median_of_means
from repro.sketches.basic import estimate_join_size as basic_join
from repro.sketches.hashing import SignFamily
from repro.sketches.partitioned import (
    PartitionedSketch,
    equi_mass_partition,
    estimate_join_size,
)


class TestEquiMassPartition:
    def test_uniform_pilot_gives_equal_widths(self):
        boundaries = equi_mass_partition(np.full(100, 3.0), 4)
        np.testing.assert_array_equal(boundaries, [0, 25, 50, 75, 100])

    def test_skewed_pilot_gives_narrow_heavy_partitions(self):
        counts = np.ones(100)
        counts[:10] = 100.0
        boundaries = equi_mass_partition(counts, 4)
        widths = np.diff(boundaries)
        # the heavy head should be cut into narrow partitions
        assert widths[0] < widths[-1]

    def test_boundaries_strictly_increase(self, rng):
        counts = np.zeros(50)
        counts[7] = 1_000_000.0  # a single dominant value
        boundaries = equi_mass_partition(counts, 5)
        assert np.all(np.diff(boundaries) > 0) or boundaries[-1] == 50

    def test_single_partition(self):
        np.testing.assert_array_equal(equi_mass_partition(np.ones(10), 1), [0, 10])

    def test_zero_pilot_falls_back_to_equi_width(self):
        boundaries = equi_mass_partition(np.zeros(12), 3)
        np.testing.assert_array_equal(boundaries, [0, 4, 8, 12])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            equi_mass_partition(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            equi_mass_partition(np.ones(4), 0)
        with pytest.raises(ValueError):
            equi_mass_partition(np.ones(4), 5)


class TestPartitionedSketch:
    def test_streaming_matches_from_counts(self, rng):
        counts = rng.integers(0, 9, 60).astype(float)
        boundaries = [0, 20, 45, 60]
        streamed = PartitionedSketch(boundaries, budget=90, seed=3)
        values = np.repeat(np.arange(60), counts.astype(int))
        streamed.update_indices(rng.permutation(values))
        batch = PartitionedSketch.from_counts(counts, boundaries, budget=90, seed=3)
        for s, b in zip(streamed.sketches, batch.sketches):
            np.testing.assert_array_equal(s.atoms, b.atoms)
        assert streamed.count == batch.count == int(counts.sum())

    def test_partition_routing(self):
        sketch = PartitionedSketch([0, 10, 30], budget=20, seed=1)
        assert sketch.partition_of(0) == 0
        assert sketch.partition_of(9) == 0
        assert sketch.partition_of(10) == 1
        assert sketch.partition_of(29) == 1
        with pytest.raises(ValueError):
            sketch.partition_of(30)

    def test_deletion(self, rng):
        sketch = PartitionedSketch([0, 10, 20], budget=20, seed=1)
        sketch.update(5)
        sketch.update(15)
        sketch.update(5, weight=-1)
        assert sketch.count == 1

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError, match="increase"):
            PartitionedSketch([0, 10, 10], budget=20, seed=1)
        with pytest.raises(ValueError, match="start at 0"):
            PartitionedSketch([1, 10], budget=20, seed=1)
        with pytest.raises(ValueError, match="budget"):
            PartitionedSketch([0, 5, 10], budget=1, seed=1)

    def test_space_accounting(self):
        sketch = PartitionedSketch([0, 10, 20, 30], budget=99, seed=1)
        assert sketch.num_atomic_sketches <= 99


class TestEstimation:
    def test_exact_on_single_value_per_partition(self):
        counts = np.zeros(40)
        counts[[5, 25]] = [100.0, 200.0]
        boundaries = [0, 20, 40]
        a = PartitionedSketch.from_counts(counts, boundaries, budget=30, seed=2)
        b = PartitionedSketch.from_counts(counts, boundaries, budget=30, seed=2)
        # one distinct value per partition: each partition sketch is exact
        assert estimate_join_size(a, b) == pytest.approx(100.0**2 + 200.0**2)

    def test_unbiased(self, rng):
        n = 80
        c1 = rng.integers(0, 10, n).astype(float)
        c2 = rng.integers(0, 10, n).astype(float)
        actual = float(c1 @ c2)
        boundaries = equi_mass_partition(c1 + c2, 4)
        estimates = []
        for seed in range(50):
            a = PartitionedSketch.from_counts(c1, boundaries, budget=256, seed=seed)
            b = PartitionedSketch.from_counts(c2, boundaries, budget=256, seed=seed)
            estimates.append(estimate_join_size(a, b))
        assert np.mean(estimates) == pytest.approx(actual, rel=0.15)

    def test_good_partition_beats_basic_on_skewed_data(self, rng):
        # Dobra's claim: with a priori distribution knowledge, partitioning
        # isolates the heavy values and tightens the estimate.
        n = 200
        c1 = rng.integers(0, 3, n).astype(float)
        c2 = rng.integers(0, 3, n).astype(float)
        c1[:4] = [3000, 2500, 2000, 1500]
        c2[:4] = [2800, 2600, 1900, 1600]
        actual = float(c1 @ c2)
        boundaries = equi_mass_partition(c1 + c2, 8)
        part_errs, basic_errs = [], []
        for seed in range(20):
            pa = PartitionedSketch.from_counts(c1, boundaries, budget=64, seed=seed)
            pb = PartitionedSketch.from_counts(c2, boundaries, budget=64, seed=seed)
            part_errs.append(abs(estimate_join_size(pa, pb) - actual) / actual)
            fam = SignFamily(n, 64, seed=seed)
            ba = AGMSSketch.from_counts(fam, c1, 64, 1)
            bb = AGMSSketch.from_counts(fam, c2, 64, 1)
            basic_errs.append(abs(basic_join(ba, bb) - actual) / actual)
        assert np.median(part_errs) < np.median(basic_errs)

    def test_incompatible_sketches_rejected(self, rng):
        counts = rng.integers(0, 5, 20).astype(float)
        a = PartitionedSketch.from_counts(counts, [0, 10, 20], budget=20, seed=1)
        b = PartitionedSketch.from_counts(counts, [0, 10, 20], budget=20, seed=2)
        with pytest.raises(ValueError, match="share"):
            estimate_join_size(a, b)
        c = PartitionedSketch.from_counts(counts, [0, 5, 20], budget=20, seed=1)
        with pytest.raises(ValueError, match="share"):
            estimate_join_size(a, c)


def per_partition_loop(a, b):
    """Dobra's sum as one ``median_of_means`` call per partition."""
    total = 0.0
    for sk_a, sk_b in zip(a.sketches, b.sketches):
        total += median_of_means(sk_a.atoms * sk_b.atoms, a._s1, a._s2)
    return total


class TestOneReduction:
    @pytest.mark.parametrize("num_partitions", [1, 2, 8])
    @pytest.mark.parametrize("budget", [8, 64, 256, 1000])
    def test_equals_the_per_partition_loop(self, num_partitions, budget):
        rng = np.random.default_rng(num_partitions * budget)
        n = 300
        c1, c2 = rng.integers(0, 9, n), rng.integers(0, 9, n)
        c1[rng.integers(0, n, 4)] = rng.integers(1_000, 50_000, 4)
        boundaries = equi_mass_partition(c1 + c2, num_partitions)
        for seed in range(5):
            a = PartitionedSketch.from_counts(c1, boundaries, budget, seed=seed)
            b = PartitionedSketch.from_counts(c2, boundaries, budget, seed=seed)
            assert estimate_join_size(a, b) == per_partition_loop(a, b)

    @pytest.mark.parametrize("boundaries", [[0, 1, 300], [0, 299, 300], [0, 3, 4, 90, 91, 300]])
    def test_uneven_partitions_equal_the_per_partition_loop(self, boundaries):
        rng = np.random.default_rng(len(boundaries))
        c1, c2 = rng.integers(0, 30, 300), rng.integers(0, 30, 300)
        a = PartitionedSketch.from_counts(c1, boundaries, budget=120, seed=3)
        b = PartitionedSketch.from_counts(c2, boundaries, budget=120, seed=3)
        b.update_indices(rng.integers(0, 300, 500))
        assert estimate_join_size(a, b) == per_partition_loop(a, b)
