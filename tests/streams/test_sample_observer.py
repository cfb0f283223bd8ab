"""The sample observer keeps the same sample as offering rows one by one.

Batched sample ingest draws all of a batch's coins in one call, then merges
just the kept cells into the sample's sorted arrays.  The per-row loop it
replaced turned every row into a tuple key and offered the keys one by one;
these tests keep that loop as the reference and require the same state from
the batched path, bit for bit, whatever the batch framing.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sampling.reservoir import BernoulliSample
from repro.streams import JoinQuery, StreamEngine

FRAMINGS = [[600], [1, 99, 500], [256, 256, 88], [7] * 85 + [5]]

#: Relation whose sample grid has this many axes, and its position in the
#: chain R1(A) - R2(A, B) - R3(B).
KEYED = {1: ("R1", 0), 2: ("R2", 1)}


def sample_engine() -> StreamEngine:
    engine = StreamEngine(seed=11)
    a, b = Domain.of_size(9), Domain.integer_range(3, 8)
    engine.create_relation("R1", ["A"], [a])
    engine.create_relation("R2", ["A", "B"], [a, b])
    engine.create_relation("R3", ["B"], [b])
    chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
    engine.register_query("s", chain, method="sample", budget=40, probability=0.3)
    return engine


def sample_items(sample: BernoulliSample) -> dict:
    """The sample keyed as the replaced Counter was: bare index or index tuple."""
    cells = np.unravel_index(sample.cells, sample.shape)
    keys = cells[0].tolist() if sample.ndim == 1 else list(zip(*(c.tolist() for c in cells)))
    return dict(zip(keys, sample.counts.tolist()))


def assert_same_sample(a: BernoulliSample, b: BernoulliSample) -> None:
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.counts, b.counts)
    got, want = a.state_dict(), b.state_dict()
    for field in ("probability", "sampled_size", "stream_size", "rng_state"):
        assert got[field] == want[field], field


def per_row_reference(sample: BernoulliSample, index_rows: np.ndarray):
    """The replaced loop: every row becomes a key and is offered in order."""
    counter: Counter = Counter()
    for row in index_rows:
        key = tuple(int(v) for v in row)
        before = sample.sampled_size
        sample.insert(key)
        if sample.sampled_size > before:
            counter[key if len(key) > 1 else key[0]] += 1
    return counter


@pytest.mark.parametrize("framing", FRAMINGS, ids=lambda f: f"{len(f)}-batches")
@pytest.mark.parametrize("key_width", [1, 2])
def test_state_matches_the_per_row_loop(key_width, framing):
    engine = sample_engine()
    name, position = KEYED[key_width]
    observer = engine._queries["s"].attachments[position][1]
    assert len(observer.axes) == key_width
    reference = BernoulliSample(0.3, observer.sample.shape)
    reference.load_state(observer.sample.state_dict())

    rng = np.random.default_rng(key_width)
    rows = np.column_stack([rng.integers(0, 9, 600), rng.integers(3, 9, 600)][:key_width])
    start = 0
    for size in framing:
        engine.ingest_batch(name, rows[start : start + size])
        start += size
    assert start == rows.shape[0]
    index_rows = engine.relations[name].indices_of_rows(rows)[:, observer.axes]
    counter = per_row_reference(reference, index_rows)

    assert_same_sample(observer.sample, reference)
    assert sample_items(observer.sample) == dict(counter)
    assert 0 < observer.sample.sampled_size < 600


class TestInsertBatch:
    def test_array_rows_and_hashables_keep_the_same_sample(self):
        rows = np.random.default_rng(4).integers(0, 5, size=(300, 2))
        by_array = BernoulliSample(0.2, (5, 5), seed=9)
        by_keys = BernoulliSample(0.2, (5, 5), seed=9)
        mask = by_array.insert_batch(rows)
        assert np.array_equal(mask, by_keys.insert_batch(tuple(map(tuple, rows.tolist()))))
        assert np.array_equal(by_array.cells, by_keys.cells)
        assert np.array_equal(by_array.counts, by_keys.counts)
        assert by_array.sampled_size == by_keys.sampled_size == int(mask.sum())
        assert by_array.stream_size == by_keys.stream_size == 300

    def test_one_dimensional_arrays_key_by_value(self):
        values = np.random.default_rng(6).integers(0, 7, size=200)
        by_array = BernoulliSample(0.3, (7,), seed=2)
        one_by_one = BernoulliSample(0.3, (7,), seed=2)
        by_array.insert_batch(values)
        one_by_one.insert_many(values.tolist())
        assert sample_items(by_array) == sample_items(one_by_one)
        assert_same_sample(by_array, one_by_one)

    def test_empty_batches_draw_no_coins(self):
        sample = BernoulliSample(0.5, (3, 2), seed=1)
        state = sample.state_dict()["rng_state"]
        assert sample.insert_batch([]).shape == (0,)
        assert sample.insert_batch(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert sample.state_dict()["rng_state"] == state
        assert sample.stream_size == 0
