"""The batched Haar update against the level-by-level loop it replaced.

``HaarSynopsis.update_batch`` adds every pass's detail shares in one
scatter-add per block of distinct values.  The reference below is the
earlier form: one scatter-add per pass over all distinct values.  Both must
leave byte-identical coefficients, since each coefficient receives its shares
in the same (ascending value) order.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.wavelets.haar import HaarSynopsis


def reference_update_batch(synopsis, values, weight=1):
    """The per-level loop: one ``np.add.at`` per resolution level."""
    indices = synopsis.domain.indices_of(values)
    if indices.size == 0:
        return
    unique, multiplicity = np.unique(indices, return_counts=True)
    mass = weight * multiplicity.astype(float)
    size = synopsis._size
    synopsis._coefficients[0] += mass.sum() / np.sqrt(size)
    length = size
    position = unique.copy()
    while length > 1:
        half = length // 2
        sign = np.where(position % 2 == 0, 1.0, -1.0)
        np.add.at(
            synopsis._coefficients,
            half + position // 2,
            mass * sign / np.sqrt(size / half),
        )
        position //= 2
        length = half
    synopsis._count += weight * int(indices.shape[0])


# A non-power-of-two domain with an offset: 3..1002 pads to 1,024 points.
DOMAIN = Domain.integer_range(3, 1002)


def _stream(rng, distinct, rows):
    """``rows`` raw values drawn from ``distinct`` distinct domain values."""
    pool = rng.choice(np.arange(DOMAIN.low, DOMAIN.high + 1), size=distinct, replace=False)
    return rng.choice(pool, size=rows)


@pytest.mark.parametrize("distinct, rows", [(1, 1), (1, 5), (3, 7), (900, 5_000)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batches_match_the_per_level_loop_byte_for_byte(distinct, rows, seed):
    rng = np.random.default_rng(seed)
    batched, reference = HaarSynopsis(DOMAIN, 64), HaarSynopsis(DOMAIN, 64)
    history = _stream(rng, distinct, 3 * rows)
    batched.update_batch(history)
    reference_update_batch(reference, history)
    for weight in (1, -1, 1):
        values = rng.choice(history, size=rows)
        batched.update_batch(values, weight=weight)
        reference_update_batch(reference, values, weight=weight)
        assert batched._coefficients.tobytes() == reference._coefficients.tobytes()
        assert batched.count == reference.count


def test_multiplicity_equals_repeated_values():
    rng = np.random.default_rng(4)
    values = _stream(rng, 40, 400)
    distinct, counts = np.unique(values, return_counts=True)
    order = rng.permutation(distinct.shape[0])
    repeated, weighted = HaarSynopsis(DOMAIN, 64), HaarSynopsis(DOMAIN, 64)
    repeated.update_batch(values, weight=-1)
    weighted.update_batch(distinct[order], weight=-1, multiplicity=counts[order])
    assert repeated.state_dict()["coefficients"].tobytes() == (
        weighted.state_dict()["coefficients"].tobytes()
    )
    assert repeated.count == weighted.count == -400


def test_one_value_matches_the_per_tuple_update():
    per_tuple, batched = HaarSynopsis(DOMAIN, 64), HaarSynopsis(DOMAIN, 64)
    for value, weight in ((17, 1), (1002, 1), (3, 1), (17, -1)):
        per_tuple.update(value, weight=weight)
        batched.update_batch([value], weight=weight)
        assert per_tuple._coefficients.tobytes() == batched._coefficients.tobytes()
