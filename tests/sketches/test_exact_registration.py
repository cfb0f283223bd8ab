"""AGMS registration contracts exact integer counts in float32.

While the counts' absolute values sum below 2^24, every partial sum of the
contraction is an integer float32 holds exactly, so the atoms must equal
the float64 contraction bit for bit, on both sides of the boundary and far
above it (where float32 would round), for one, two and three attributes.
Any other counts, float-valued ones included, contract in float64.
"""

import numpy as np
import pytest

from repro.sketches import basic
from repro.sketches.basic import FLOAT32_EXACT_SUM, AGMSSketch
from repro.sketches.hashing import SignFamily

SHAPES = [(600,), (600, 7), (520, 5, 3)]  # the first axis spans several blocks
AXES = "abc"


def counts_with_absolute_sum(shape, total, seed):
    """Mixed-sign integer counts whose absolute values sum to ``total``."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    counts = rng.integers(-total // size, total // size + 1, size=size)
    counts[0] = 0
    counts[0] = -(total - np.abs(counts).sum())
    return counts.reshape(shape)


def float64_atoms(families, counts):
    """The dense float64 contraction: every sign matrix against the counts."""
    signs = [family.sign_matrix().astype(np.float64) for family in families]
    axes = AXES[: counts.ndim]
    spec = ",".join(f"s{axis}" for axis in axes) + f",{axes}->s"
    return np.einsum(spec, *signs, counts.astype(np.float64))


def families_for(shape):
    return [SignFamily(n, 255, seed=10 + i) for i, n in enumerate(shape)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}-axis")
@pytest.mark.parametrize(
    "total", [FLOAT32_EXACT_SUM - 1, FLOAT32_EXACT_SUM, 4 * FLOAT32_EXACT_SUM + 1]
)
def test_atoms_equal_the_float64_contraction(shape, total):
    counts = counts_with_absolute_sum(shape, total, seed=len(shape))
    assert np.abs(counts).sum() == total and counts.min() < 0 < counts.max()
    families = families_for(shape)
    sketch = AGMSSketch.from_counts(families, counts, 51, 5)
    assert sketch.atoms.dtype == np.float64
    np.testing.assert_array_equal(sketch.atoms, float64_atoms(families, counts))
    assert sketch.count == int(counts.sum())


@pytest.mark.parametrize(
    "counts, exact32",
    [
        (np.array([FLOAT32_EXACT_SUM - 1]), True),
        (np.array([FLOAT32_EXACT_SUM]), False),
        (np.array([-(FLOAT32_EXACT_SUM // 2), FLOAT32_EXACT_SUM // 2 - 1]), True),
        (np.array([-(FLOAT32_EXACT_SUM // 2), FLOAT32_EXACT_SUM // 2]), False),
        (np.array([np.iinfo(np.int64).min, 1]), False),  # abs would wrap
        (np.full(4, 1 << 62), False),  # the sum would wrap to 0
        (np.array([3, -4], dtype=np.int8), True),
        (np.array([1.0, 2.0]), False),
    ],
)
def test_float32_only_below_the_exact_sum(counts, exact32):
    assert basic._float32_exact(counts) is exact32


def test_float_counts_contract_in_float64():
    # Halves beside counts near 2^24 need 25 significant bits: a float32
    # contraction would round them, the float64 one stays exact.
    shape = (600, 7)
    counts = counts_with_absolute_sum(shape, FLOAT32_EXACT_SUM - 1, seed=3) + 0.5
    families = families_for(shape)
    sketch = AGMSSketch.from_counts(families, counts, 51, 5)
    np.testing.assert_array_equal(sketch.atoms, float64_atoms(families, counts))
