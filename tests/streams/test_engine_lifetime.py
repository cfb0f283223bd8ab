"""A dropped engine is freed by reference counting alone.

An engine that stores a reference to itself in one of its children (an
estimate closure, a relation's fault handler) survives its last outside
reference until the cyclic collector runs, and holds its exact tensors
and synopses until then.  Every test here runs with the collector off,
keeps only a weak reference to the engine and drops it: the engine must
be gone at once.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine

METHODS = (
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
)
CHAIN_METHODS = ("cosine", "basic_sketch", "skimmed_sketch", "sample")
MODES = ("answer", "upper_bound", "clamped")
PAIR = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
CHAIN = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])


@pytest.fixture(autouse=True)
def no_cyclic_collector():
    """Leave reclamation to reference counting for the whole test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def ingest(engine, seed=0):
    rng = np.random.default_rng(seed)
    engine.ingest_batch("R1", rng.integers(0, 32, (300, 1)))
    engine.ingest_batch("R2", np.stack([rng.integers(0, 32, 300), rng.integers(0, 8, 300)], 1))
    engine.ingest_batch("R3", rng.integers(0, 8, (300, 1)))


def schema(engine):
    a, b = Domain.of_size(32), Domain.of_size(8)
    engine.create_relation("R1", ["A"], [a])
    engine.create_relation("R2", ["A", "B"], [a, b])
    engine.create_relation("R3", ["B"], [b])
    return engine


def full_engine():
    """Every method with bounds, a chain, a range and a band query, after ingest."""
    engine = schema(StreamEngine(seed=5))
    ingest(engine)
    for method in METHODS:
        engine.register_query(f"j_{method}", PAIR, method=method, budget=16, bounds=True)
    for method in CHAIN_METHODS:
        engine.register_query(f"c_{method}", CHAIN, method=method, budget=16)
    engine.register_range_query("range", "R1", "A", 4, 20, budget=16)
    engine.register_band_query("band", ("R1", "A"), ("R2", "A"), 2, budget=16)
    ingest(engine, seed=1)
    return engine


class TestRegistrations:
    @pytest.mark.parametrize("bounds", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_join_query(self, method, bounds):
        engine = schema(StreamEngine(seed=5))
        ingest(engine)
        engine.register_query("q", PAIR, method=method, budget=16, bounds=bounds)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"

    @pytest.mark.parametrize("method", CHAIN_METHODS)
    def test_chain_query(self, method):
        engine = schema(StreamEngine(seed=5))
        engine.register_query("q", CHAIN, method=method, budget=16)
        ingest(engine)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"

    def test_range_query(self):
        engine = schema(StreamEngine(seed=5))
        engine.register_range_query("q", "R1", "A", 4, 20, budget=16)
        ingest(engine)
        assert engine.exact_answer("q") >= 0
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"

    def test_band_query(self):
        engine = schema(StreamEngine(seed=5))
        engine.register_band_query("q", ("R1", "A"), ("R2", "A"), 2, budget=16)
        ingest(engine)
        assert engine.exact_answer("q") >= 0
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"


class TestLifecycle:
    def test_after_ingest_and_every_estimate_mode(self):
        engine = full_engine()
        for name in engine.query_names():
            engine.exact_answer(name)
            if name.startswith("j_"):
                for mode in MODES:
                    engine.estimate(name, mode)
                engine.bound_report(name)
            else:
                engine.estimate(name)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"

    def test_fault_isolation_and_dead_lettering(self):
        # no band query here, so only the relations' fault handler can leak
        engine = schema(StreamEngine(seed=5))
        engine.register_query("q", PAIR, method="cosine", budget=16)
        engine.enable_fault_isolation("exact")
        engine.enable_dead_lettering(capacity=8)
        engine.create_relation("R4", ["A"], [Domain.of_size(32)])
        engine.ingest_batch("R1", np.array([[3], [99]]))
        assert len(engine.dead_letters) == 1
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "kept alive by a reference cycle"

    def test_engine_from_checkpoint(self, tmp_path):
        engine = full_engine()
        engine.enable_fault_isolation("nan")
        engine.save_checkpoint(tmp_path / "engine.ckpt")
        del engine
        restored = StreamEngine.load_checkpoint(tmp_path / "engine.ckpt")
        assert np.isfinite(restored.answer("band"))
        ref = weakref.ref(restored)
        del restored
        assert ref() is None, "kept alive by a reference cycle"

    def test_closed_serial_fleet(self):
        fleet = ShardedStreamEngine(num_shards=2, seed=5, executor="serial")
        schema(fleet)
        fleet.register_query("q", PAIR, method="cosine", budget=16, bounds=True)
        fleet.register_band_query("band", ("R1", "A"), ("R2", "A"), 2, budget=16)
        ingest(fleet)
        fleet.answers()
        fleet.exact_answer("band")
        engines = [fleet._merge_engine, *(worker.engine for worker in fleet._executor.workers)]
        refs = [weakref.ref(fleet), *map(weakref.ref, engines)]
        del engines
        fleet.close()
        del fleet
        assert [ref() for ref in refs] == [None] * 4, "kept alive by a reference cycle"
