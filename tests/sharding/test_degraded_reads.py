"""A query degraded on one shard reads exactly as it does on one engine.

The fleet answers through its template engine, so every read of a
degraded query — the point estimate, both bound modes and the bound
report — follows the single engine's fault policy: the same exception
(the fleet's reason names the shard), the same NaN, the same exact
fallback value.
"""

import math

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.resilience.errors import DegradedQueryError
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine

DOMAIN = 32
QUERY = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])

READS = {
    "answer": lambda engine: engine.answer("q"),
    "upper_bound": lambda engine: engine.estimate("q", mode="upper_bound"),
    "clamped": lambda engine: engine.estimate("q", mode="clamped"),
    "bound_report": lambda engine: engine.bound_report("q"),
}


def degraded(engine, policy, local_engine):
    """Feed ``engine``, then break the query's first observer on ``local_engine``."""
    engine.enable_fault_isolation(policy)
    for rel in ("R1", "R2"):
        engine.create_relation(rel, ["A"], [Domain.of_size(DOMAIN)])
    engine.register_query("q", QUERY, method="cosine", budget=16, bounds=True)
    rng = np.random.default_rng(5)
    for rel in ("R1", "R2"):
        engine.ingest_batch(rel, rng.integers(0, DOMAIN, size=(120, 1)))

    def exploding(relation, rows, kind):
        raise RuntimeError("synopsis exploded")

    _, observer = local_engine(engine)._queries["q"].attachments[0]
    observer.on_ops = exploding
    engine.ingest_batch("R1", rng.integers(0, DOMAIN, size=(120, 1)))
    return engine


def outcome(read, engine):
    try:
        return read(engine)
    except DegradedQueryError as exc:
        return exc


def same_number(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


@pytest.mark.parametrize("read", list(READS))
@pytest.mark.parametrize("policy", ["raise", "nan", "exact"])
def test_degraded_read_matches_single_engine(policy, read):
    single = degraded(StreamEngine(seed=0), policy, lambda engine: engine)
    with ShardedStreamEngine(num_shards=2, seed=0) as fleet:
        degraded(fleet, policy, lambda fleet: fleet._executor.workers[0].engine)
        assert list(fleet.degraded_queries()) == ["q"]
        expected = outcome(READS[read], single)
        got = outcome(READS[read], fleet)
        exact = fleet.exact_answer("q")
    assert exact == single.exact_answer("q")
    if isinstance(expected, DegradedQueryError):
        assert isinstance(got, DegradedQueryError), got
        assert got.query == "q"
        assert got.reason == f"shard 0: {expected.reason}"
    elif isinstance(expected, dict):
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert same_number(got[key], value), (key, got, expected)
    else:
        assert same_number(got, expected), (got, expected)
    if policy == "exact" and read in ("answer", "clamped"):
        assert got == exact


@pytest.mark.parametrize("policy", ["raise", "nan", "exact"])
def test_only_the_exact_policy_fetches_ground_truth(policy):
    with ShardedStreamEngine(num_shards=2, seed=0) as fleet:
        degraded(fleet, policy, lambda fleet: fleet._executor.workers[0].engine)
        commands = []
        broadcast = fleet._executor.broadcast

        def spy(command, *args, **kwargs):
            commands.append(command)
            return broadcast(command, *args, **kwargs)

        fleet._executor.broadcast = spy
        outcome(READS["answer"], fleet)
        # the truth is the replica's: no policy broadcasts for a tensor
        assert commands.count("relation_counts") == 0
        # the lent truth goes back: the template keeps no merged tensor
        assert not any(rel.counts.any() for rel in fleet._merge_engine.relations.values())


def test_loaded_states_cannot_revive_a_quarantined_observer():
    engine = degraded(StreamEngine(seed=0), "raise", lambda engine: engine)
    reason, states = engine.query_states("q")
    assert reason is not None
    with pytest.raises(ValueError, match="quarantined"):
        engine.load_query_states("q", states)
    assert list(engine.degraded_queries()) == ["q"]
