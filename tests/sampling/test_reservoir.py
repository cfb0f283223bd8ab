"""Tests for Bernoulli and reservoir stream samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.reservoir import BernoulliSample, ReservoirSample
from repro.sketches.hashing import HASH_BLOCK_CELLS


def sample_items(sample):
    """The sample as ``{grid index: multiplicity}``."""
    cells = np.unravel_index(sample.cells, sample.shape)
    keys = cells[0].tolist() if sample.ndim == 1 else list(zip(*(c.tolist() for c in cells)))
    return dict(zip(keys, sample.counts.tolist()))


class TestBernoulli:
    def test_invalid_probability_rejected(self):
        for p in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                BernoulliSample(p, (4,))

    def test_p_one_keeps_everything(self):
        s = BernoulliSample(1.0, (100,), seed=1)
        s.insert_many(range(100))
        assert s.sampled_size == 100
        assert s.stream_size == 100
        assert int(s.counts.sum()) == 100

    def test_sample_size_concentrates_around_p_n(self):
        s = BernoulliSample(0.3, (20_000,), seed=2)
        s.insert_many(range(20_000))
        assert s.sampled_size == pytest.approx(6000, rel=0.1)

    def test_counts_track_multiplicity(self):
        s = BernoulliSample(1.0, (10,), seed=3)
        s.insert_many([7, 7, 7, 9])
        assert sample_items(s) == {7: 3, 9: 1}

    def test_cells_stay_sorted_and_distinct(self):
        s = BernoulliSample(1.0, (5, 4), seed=3)
        s.insert_many([(4, 0), (0, 3), (2, 2), (0, 3)])
        s.insert_batch(np.array([[2, 2], [1, 1], [4, 3]]))
        assert s.cells.tolist() == sorted(set(s.cells.tolist()))
        assert sample_items(s) == {(0, 3): 2, (1, 1): 1, (2, 2): 2, (4, 0): 1, (4, 3): 1}
        assert s.cells.dtype == s.counts.dtype == np.int64

    def test_cells_off_the_grid_are_rejected(self):
        s = BernoulliSample(1.0, (5,), seed=3)
        with pytest.raises(ValueError):
            s.insert_batch(np.array([1, 5]))
        with pytest.raises(ValueError):
            s.insert(-1)

    def test_deterministic_given_seed(self):
        a = BernoulliSample(0.5, (100,), seed=4)
        b = BernoulliSample(0.5, (100,), seed=4)
        a.insert_many(range(100))
        b.insert_many(range(100))
        assert sample_items(a) == sample_items(b)

    def test_deletion_unsupported(self):
        s = BernoulliSample(0.5, (4,), seed=5)
        s.insert(1)
        with pytest.raises(NotImplementedError, match="deletions"):
            s.delete(1)


class TestFromCounts:
    def test_thins_the_same_cells_in_c_order(self):
        counts = np.array([[0, 5, 0], [2, 0, 7]])
        sample = BernoulliSample.from_counts(counts, 0.5, np.random.default_rng(9))
        reference = np.random.default_rng(9)
        seed = int(reference.integers(1 << 31))
        kept = reference.binomial(np.array([5, 2, 7]), 0.5)
        assert sample.state_dict()["rng_state"] == np.random.default_rng(seed).bit_generator.state
        assert sample_items(sample) == {
            cell: int(k) for cell, k in zip([(0, 1), (1, 0), (1, 2)], kept) if k
        }
        assert sample.sampled_size == int(kept.sum())
        assert sample.stream_size == 14
        assert sample.shape == (2, 3)

    def test_state_round_trip_narrows_and_widens(self):
        sample = BernoulliSample.from_counts(
            np.arange(300) % 7, 0.5, np.random.default_rng(1)
        )
        state = sample.state_dict()
        assert state["cells"].dtype == np.uint16 and state["counts"].dtype == np.uint8
        restored = BernoulliSample(0.5, (300,))
        restored.load_state(state)
        assert restored.cells.dtype == restored.counts.dtype == np.int64
        assert np.array_equal(restored.cells, sample.cells)
        assert np.array_equal(restored.counts, sample.counts)
        cells = np.arange(300)
        assert np.array_equal(restored.insert_batch(cells), sample.insert_batch(cells))
        assert sample_items(restored) == sample_items(sample)


def one_shot_from_counts(counts, probability, rng):
    """``from_counts`` as one ``flatnonzero`` and one ``binomial`` call over the tensor."""
    counts = np.asarray(counts)
    sample = BernoulliSample(probability, counts.shape, seed=int(rng.integers(1 << 31)))
    flat = counts.ravel()
    cells = np.flatnonzero(flat)
    kept = rng.binomial(flat[cells].astype(np.int64, copy=False), probability)
    held = kept > 0
    sample.cells, sample.counts = cells[held], kept[held]
    sample.sampled_size = int(kept.sum())
    sample.stream_size = int(flat.sum())
    return sample


def unique_insert_batch(sample, cells):
    """``insert_batch`` collapsing the kept cells with ``np.unique``."""
    cells = np.asarray(cells, dtype=np.int64)
    if not len(cells):
        return np.zeros(0, dtype=bool)
    mask = sample._rng.random(len(cells)) < sample.probability
    sample.stream_size += len(cells)
    kept = cells[mask].reshape(-1, sample.ndim)
    if len(kept):
        flat = np.ravel_multi_index(tuple(kept.T), sample.shape)
        sample._add(*np.unique(flat, return_counts=True))
        sample.sampled_size += len(kept)
    return mask


def assert_same_sample(got, want):
    assert got.cells.tobytes() == want.cells.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.cells.dtype == want.cells.dtype == np.int64
    assert got.counts.dtype == want.counts.dtype == np.int64
    assert (got.sampled_size, got.stream_size) == (want.sampled_size, want.stream_size)
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


class TestBlockedReplay:
    @pytest.mark.parametrize("probability", [1.0, 0.05, 0.002])
    @pytest.mark.parametrize(
        "shape",
        [
            (HASH_BLOCK_CELLS - 1,),
            (HASH_BLOCK_CELLS,),
            (HASH_BLOCK_CELLS + 1,),
            (3 * HASH_BLOCK_CELLS + 5,),
            (181, 363),
            (17, 31, 129),
        ],
    )
    def test_equals_the_one_shot_replay(self, probability, shape):
        data = np.random.default_rng(len(shape) + shape[0])
        for density in (1.0, 0.01, 0.0):
            counts = data.integers(1, 40, shape) * (data.random(shape) < density)
            counts.reshape(-1)[-1] = 3  # a value in the last cell of the last block
            rng, reference = np.random.default_rng(5), np.random.default_rng(5)
            sample = BernoulliSample.from_counts(counts, probability, rng)
            assert_same_sample(sample, one_shot_from_counts(counts, probability, reference))
            assert rng.bit_generator.state == reference.bit_generator.state
            assert sample.shape == shape

    def test_all_zero_tensor(self):
        rng = np.random.default_rng(1)
        sample = BernoulliSample.from_counts(np.zeros((40, 900), dtype=np.int64), 0.5, rng)
        assert sample.cells.size == sample.counts.size == 0
        assert sample.cells.dtype == sample.counts.dtype == np.int64
        assert sample.sampled_size == sample.stream_size == 0

    def test_grid_too_large_to_number_is_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            BernoulliSample(0.5, (2**31, 2**31, 4))


@st.composite
def offered_batches(draw):
    """A 1-3-axis grid and batches of one row, of many rows over few cells, and sparse ones."""
    shape = tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)))
    rows = st.tuples(*(st.integers(0, n - 1) for n in shape))
    batches = draw(
        st.lists(
            st.one_of(
                st.lists(rows, min_size=1, max_size=1),
                st.lists(st.sampled_from([tuple(0 for _ in shape), tuple(n - 1 for n in shape)]),
                         min_size=2, max_size=300),
                st.lists(rows, min_size=0, max_size=200),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return shape, draw(st.sampled_from([1.0, 0.5, 0.05])), draw(st.integers(0, 2**32 - 1)), batches


class TestDistinctCellsInsert:
    @settings(max_examples=60, deadline=None)
    @given(offered_batches())
    def test_equals_the_unique_path(self, case):
        shape, probability, seed, batches = case
        got = BernoulliSample(probability, shape, seed=seed)
        want = BernoulliSample(probability, shape, seed=seed)
        for batch in batches:
            cells = np.array(batch, dtype=np.int64).reshape(-1, len(shape))
            if len(shape) == 1 and len(batch) % 2:
                cells = cells[:, 0]  # the (B,) form a 1-d grid also takes
            np.testing.assert_array_equal(
                got.insert_batch(cells), unique_insert_batch(want, cells)
            )
            assert_same_sample(got, want)

    def test_one_row_inserts_equal_the_unique_path(self):
        got = BernoulliSample(0.7, (32, 32), seed=4)
        want = BernoulliSample(0.7, (32, 32), seed=4)
        for cell in np.random.default_rng(4).integers(0, 32, (500, 2)):
            got.insert(cell.tolist())
            unique_insert_batch(want, np.reshape(cell, (1, -1)))
        assert_same_sample(got, want)


class TestReservoir:
    def test_capacity_enforced(self):
        r = ReservoirSample(10, seed=1)
        r.insert_many(range(1000))
        assert r.sampled_size == 10
        assert r.stream_size == 1000

    def test_short_stream_fully_kept(self):
        r = ReservoirSample(10, seed=2)
        r.insert_many(range(4))
        assert sorted(r.items) == [0, 1, 2, 3]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)

    def test_uniform_inclusion_probability(self):
        # Every element of a length-50 stream should appear in a k=10
        # reservoir with probability 1/5; check the first element's rate.
        hits = 0
        runs = 2000
        for seed in range(runs):
            r = ReservoirSample(10, seed=seed)
            r.insert_many(range(50))
            hits += 0 in r.items
        assert hits / runs == pytest.approx(0.2, abs=0.03)

    def test_value_counts(self):
        r = ReservoirSample(5, seed=3)
        r.insert_many([1, 1, 2])
        counts = r.value_counts()
        assert counts[1] == 2 and counts[2] == 1
