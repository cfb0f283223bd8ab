"""Sample queries on the unified index grid, end to end.

A sample keys its cells by unified-domain index, oriented by chain
position, so at ``probability=1`` it holds every tuple and answers the
exact join size on any schema: offset domains, inner relations that
declare their attributes in either order, one engine or a fleet.  These
tests also pin the estimator to a brute-force cross product, the sample
state to being independent of batch framing, and checkpoint format 3 to
restoring answers and future coin flips bit for bit.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.resilience.checkpoint import read_checkpoint
from repro.resilience.errors import CheckpointError
from repro.sampling.estimators import estimate_chain_join_size_samples
from repro.sampling.reservoir import BernoulliSample
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine

PAIR = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
CHAIN = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])


def offset_pair(engine):
    """R1.A over [3, 8] joined to R2.A over [0, 8]."""
    engine.create_relation("R1", ["A"], [Domain.integer_range(3, 8)])
    engine.create_relation("R2", ["A"], [Domain.of_size(9)])
    rng = np.random.default_rng(0)
    return {"R1": rng.integers(3, 9, (400, 1)), "R2": rng.integers(0, 9, (500, 1))}


def reversed_chain(engine):
    """R1(A) - R2(B, A) - R3(B): the inner relation lists B before A."""
    a, b = Domain.of_size(10), Domain.integer_range(2, 8)
    engine.create_relation("R1", ["A"], [a])
    engine.create_relation("R2", ["B", "A"], [b, a])
    engine.create_relation("R3", ["B"], [Domain.of_size(9)])
    rng = np.random.default_rng(1)
    return {
        "R1": rng.integers(0, 10, (300, 1)),
        "R2": np.column_stack([rng.integers(2, 9, 400), rng.integers(0, 10, 400)]),
        "R3": rng.integers(0, 9, (200, 1)),
    }


SCHEMAS = {"offset_pair": (offset_pair, PAIR), "reversed_chain": (reversed_chain, CHAIN)}


def sample_of(engine, query, relation):
    """The Bernoulli sample ``query`` keeps of ``relation``."""
    state = engine._queries[query]
    return next(obs.sample for rel, obs in state.attachments if rel.name == relation)


def items(sample):
    """``{cell index tuple: multiplicity}`` of a sample."""
    cells = zip(*(c.tolist() for c in np.unravel_index(sample.cells, sample.shape)))
    return dict(zip(cells, sample.counts.tolist()))


def assert_same_samples(a, b, relations):
    for rel in relations:
        x, y = sample_of(a, "s", rel), sample_of(b, "s", rel)
        assert np.array_equal(x.cells, y.cells) and np.array_equal(x.counts, y.counts)
        assert x.state_dict()["rng_state"] == y.state_dict()["rng_state"]
        assert (x.sampled_size, x.stream_size) == (y.sampled_size, y.stream_size)


class TestExactAtFullRate:
    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    @pytest.mark.parametrize("registered", ["before", "after"])
    def test_single_engine_answers_the_exact_size(self, schema, registered):
        make, query = SCHEMAS[schema]
        engine = StreamEngine(seed=3)
        rows = make(engine)
        if registered == "before":
            engine.register_query("s", query, method="sample", probability=1.0)
        for rel, batch in rows.items():
            engine.ingest_batch(rel, batch)
        if registered == "after":
            engine.register_query("s", query, method="sample", probability=1.0)
        assert engine.answer("s") == engine.exact_answer("s") > 0

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    def test_two_shard_fleet_answers_the_exact_size(self, schema):
        make, query = SCHEMAS[schema]
        with ShardedStreamEngine(num_shards=2, seed=3, executor="serial") as fleet:
            rows = make(fleet)
            for rel, batch in rows.items():
                fleet.ingest_batch(rel, batch)
            fleet.register_query("s", query, method="sample", probability=1.0)
            fleet.ingest_batch("R1", rows["R1"][:50])
            assert fleet.answer("s") == fleet.exact_answer("s") > 0

    def test_per_op_inserts_key_by_the_unified_domain(self):
        engine = StreamEngine(seed=3)
        rows = reversed_chain(engine)
        engine.register_query("s", CHAIN, method="sample", probability=1.0)
        for rel, batch in rows.items():
            for row in batch[:40]:
                engine.insert(rel, tuple(int(v) for v in row))
        assert engine.answer("s") == engine.exact_answer("s") > 0
        # R2(B, A) is held as (A, B) cells, A over [0, 9] and B over [0, 8].
        sample = sample_of(engine, "s", "R2")
        assert sample.shape == (10, 9)
        b, a = rows["R2"][0]
        assert items(sample)[(a, b)] >= 1

    def test_unjoined_relation_is_refused(self):
        engine = StreamEngine(seed=3)
        rows = reversed_chain(engine)
        for rel, batch in rows.items():
            engine.ingest_batch(rel, batch)
        query = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A"])
        with pytest.raises(ValueError, match="chain queries"):
            engine.register_query("s", query, method="sample")


def brute_force(samples):
    """Sample-tuple combinations whose adjacent join values agree, scaled."""
    expanded = []
    for sample in samples:
        cells = zip(*(c.tolist() for c in np.unravel_index(sample.cells, sample.shape)))
        expanded.append([c for c, n in zip(cells, sample.counts.tolist()) for _ in range(n)])
    total = sum(
        all(left[-1] == right[0] for left, right in zip(combo, combo[1:]))
        for combo in itertools.product(*expanded)
    )
    scale = 1.0
    for sample in samples:
        scale /= sample.probability
    return total * scale


@st.composite
def chain_counts(draw):
    """Count tensors of a 2-4 relation chain, with a sampling rate each."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shapes = [(sizes[0],), *zip(sizes, sizes[1:]), (sizes[-1],)]
    tensors = [
        np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))).reshape(shape)
        for shape in shapes
        for n in [int(np.prod(shape))]
    ]
    rates = draw(st.lists(st.sampled_from([0.25, 0.5, 0.9, 1.0]), min_size=len(shapes),
                          max_size=len(shapes)))
    return tensors, rates, draw(st.integers(0, 2**16))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(chain_counts())
    def test_chain_estimate_is_the_scaled_sample_cross_product(self, drawn):
        tensors, rates, seed = drawn
        rng = np.random.default_rng(seed)
        samples = [BernoulliSample.from_counts(t, p, rng) for t, p in zip(tensors, rates)]
        assert estimate_chain_join_size_samples(samples) == brute_force(samples)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 400), min_size=1, max_size=6), st.booleans())
    def test_sample_state_does_not_depend_on_batch_framing(self, cuts, per_op_tail):
        whole, split = StreamEngine(seed=5), StreamEngine(seed=5)
        rows = reversed_chain(whole)
        reversed_chain(split)
        for engine in (whole, split):
            engine.register_query("s", CHAIN, method="sample", probability=0.4)
        for rel, batch in rows.items():
            whole.ingest_batch(rel, batch)
            bounds = [0, *sorted(c % (len(batch) + 1) for c in cuts), len(batch)]
            pieces = [batch[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            tail = pieces.pop() if per_op_tail else []
            for piece in pieces:
                split.ingest_batch(rel, piece)
            for row in tail:
                split.insert(rel, tuple(int(v) for v in row))
        assert_same_samples(whole, split, rows)
        assert whole.answer("s") == split.answer("s")


class TestCheckpointFormat3:
    def engine(self):
        engine = StreamEngine(seed=8)
        rows = reversed_chain(engine)
        engine.register_query("s", CHAIN, method="sample", probability=0.5)
        for rel, batch in rows.items():
            engine.ingest_batch(rel, batch[: len(batch) // 2])
        return engine, rows

    def test_restore_keeps_answers_and_next_coin_flips(self, tmp_path):
        engine, rows = self.engine()
        engine.save_checkpoint(tmp_path / "c.ckpt")
        restored = StreamEngine.load_checkpoint(tmp_path / "c.ckpt")
        assert restored.answer("s") == engine.answer("s")
        assert_same_samples(engine, restored, rows)
        for rel, batch in rows.items():
            for target in (engine, restored):
                target.ingest_batch(rel, batch[len(batch) // 2 :])
                target.insert(rel, tuple(int(v) for v in batch[0]))
        assert_same_samples(engine, restored, rows)
        assert restored.answer("s") == engine.answer("s")

    def test_sample_arrays_are_stored_narrow(self, tmp_path):
        engine, _ = self.engine()
        engine.save_checkpoint(tmp_path / "c.ckpt")
        payload = read_checkpoint(tmp_path / "c.ckpt")
        states = [s for s in payload["observers"] if "cells" in s]
        assert len(states) == 3
        for state in states:
            assert state["cells"].dtype == np.uint8 and state["counts"].dtype == np.uint8

    def test_format_2_file_is_refused(self, tmp_path):
        engine, _ = self.engine()
        path = tmp_path / "c.ckpt"
        engine.save_checkpoint(path)
        header, _, blob = path.read_bytes().partition(b"\n")
        old = json.loads(header)
        old["version"] = 2
        path.write_bytes(json.dumps(old).encode("ascii") + b"\n" + blob)
        with pytest.raises(CheckpointError, match="version 2"):
            StreamEngine.load_checkpoint(path)
