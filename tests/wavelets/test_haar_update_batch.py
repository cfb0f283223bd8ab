"""The Haar update kernel against a pure-integer per-tuple reference.

``HaarSynopsis`` keeps the unnormalized transform in int64, and
``update``, ``update_batch`` and the engine all go through one kernel,
``update_indices``: one scatter-add over every level's targets, or the
transform of the batch's counts once those targets would outnumber the
transform's entries (past 102 rows on the 1,024-point transform here).
The reference below walks one tuple at a time in Python integers.  Every batch framing must leave exactly the
reference's details, and so the engine's thresholded answer must not
depend on how the stream was cut into batches.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.streams.engine import StreamEngine
from repro.streams.queries import JoinQuery
from repro.wavelets.haar import HaarSynopsis

# A non-power-of-two domain with an offset: 3..1002 pads to 1,024 points.
DOMAIN = Domain.integer_range(3, 1002)


def reference_update(details, value, weight):
    """One tuple, level by level, in Python integers: the count at 0, one detail a level."""
    details[0] += weight
    half, block = len(details) // 2, DOMAIN.index_of(value)
    while half:
        details[half + block // 2] += weight if block % 2 == 0 else -weight
        half, block = half // 2, block // 2


def _int64(details):
    return np.array(details, dtype=np.int64)


def _stream(rng, distinct, rows):
    """``rows`` raw values drawn from ``distinct`` distinct domain values."""
    pool = rng.choice(np.arange(DOMAIN.low, DOMAIN.high + 1), size=distinct, replace=False)
    return rng.choice(pool, size=rows)


@pytest.mark.parametrize(
    "distinct, rows", [(1, 1), (1, 5), (3, 7), (50, 102), (50, 103), (900, 5_000)]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batches_match_the_per_level_loop_byte_for_byte(distinct, rows, seed):
    rng = np.random.default_rng(seed)
    batched, reference = HaarSynopsis(DOMAIN, 64), [0] * 1024
    history = _stream(rng, distinct, 3 * rows)
    batched.update_batch(history)
    for value in history.tolist():
        reference_update(reference, value, 1)
    for weight in (1, -1, 1):
        values = rng.choice(history, size=rows)
        batched.update_batch(values, weight=weight)
        for value in values.tolist():
            reference_update(reference, value, weight)
        assert batched.state_dict()["details"].tobytes() == _int64(reference).tobytes()
        assert batched.count == reference[0]


def test_multiplicity_equals_repeated_values():
    rng = np.random.default_rng(4)
    values = _stream(rng, 40, 400)
    distinct, counts = np.unique(values, return_counts=True)
    order = rng.permutation(distinct.shape[0])
    repeated, weighted = HaarSynopsis(DOMAIN, 64), HaarSynopsis(DOMAIN, 64)
    repeated.update_batch(values, weight=-1)
    weighted.update_batch(distinct[order], weight=-1, multiplicity=counts[order])
    np.testing.assert_array_equal(
        repeated.state_dict()["details"], weighted.state_dict()["details"]
    )
    assert repeated.count == weighted.count == -400


def test_one_value_matches_the_per_tuple_update():
    per_tuple, batched, reference = HaarSynopsis(DOMAIN, 64), HaarSynopsis(DOMAIN, 64), [0] * 1024
    for value, weight in ((17, 1), (1002, 1), (3, 1), (17, -1)):
        per_tuple.update(value, weight=weight)
        batched.update_batch([value], weight=weight)
        reference_update(reference, value, weight)
        np.testing.assert_array_equal(per_tuple.state_dict()["details"], _int64(reference))
        np.testing.assert_array_equal(batched.state_dict()["details"], _int64(reference))


def test_engine_answer_is_independent_of_batch_framing():
    # 5,000 Zipf(1.3) rows per side, mod 1,024, at budget 64: coefficients
    # tie at the top-64 threshold on these rows, so any rounding in the
    # state would show as an answer that depends on the batch framing.
    rng = np.random.default_rng(0)
    rows = {name: rng.zipf(1.3, 5_000) % 1_024 for name in ("R1", "R2")}
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    answers, states = [], []
    for batches, late in ((1, False), (6, False), (50, False), (7, True)):
        engine = StreamEngine()
        for name in rows:
            engine.create_relation(name, ["A"], [Domain.of_size(1_024)])
        if not late:
            engine.register_query("q", query, method="wavelet", budget=64)
        for name, values in rows.items():
            for part in np.array_split(values, batches):
                engine.ingest_batch(name, part[:, None])
        if late:  # replayed from the relations' counts
            engine.register_query("q", query, method="wavelet", budget=64)
        answers.append(engine.answer("q"))
        states.append(engine.query_states("q")[1])
    assert len(set(answers)) == 1, answers
    for other in states[1:]:
        for left, right in zip(states[0], other):
            np.testing.assert_array_equal(left["details"], right["details"])
