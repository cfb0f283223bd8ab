"""The projection form of the basis kernel: ``phi_block(..., weights=W)``.

Coefficient maintenance needs only ``phi_block(order, positions) @ W``.
The numpy backend computes it block by block without the table; these
tests pin it to the table's product on every backend, across the strategy
switch, the block and tile edges and both weight shapes, and bound the
memory the coefficient paths that use it hold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.core.synopsis import CosineSynopsis
from repro.fastpath import (
    PROJECT_COLS,
    PROJECT_ROWS,
    RECURRENCE_MIN_COLS,
    SQRT2,
    phi_block,
    set_backend,
)
from repro.streams import JoinQuery, StreamEngine

REL_TOL = 1e-12
MB = 1 << 20


def table_product(order: int, positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``phi_block(order, positions) @ weights``, built in column chunks.

    Each column of the table depends only on its own position, so chunks
    of at least ``RECURRENCE_MIN_COLS`` columns (the strategy the whole
    batch gets) give the table's values while holding at most 1024 of them.
    """
    cols = positions.shape[0]
    total = np.zeros((order,) + weights.shape[1:])
    for idx in np.array_split(np.arange(cols), max(1, -(-cols // 1024))):
        total += phi_block(order, positions[idx]) @ weights[idx]
    return total


def assert_projection_matches(order: int, positions: np.ndarray, weights: np.ndarray) -> None:
    got = phi_block(order, positions, weights=weights)
    want = table_product(order, positions, weights)
    assert got.shape == want.shape == (order,) + weights.shape[1:]
    # relative to sum_b |phi_k(x_b)| |w_b| <= sqrt(2) sum_b |w_b|, the scale
    # on which any reordering of the sum errs
    scale = SQRT2 * np.max(np.abs(weights).sum(axis=0), initial=1.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=REL_TOL * scale)


def make_weights(rng: np.random.Generator, cols: int, width: int | None) -> np.ndarray:
    shape = (cols,) if width is None else (cols, width)
    return rng.integers(-5, 6, size=shape).astype(float) + rng.uniform(0.0, 1.0, size=shape)


#: Orders and column counts on either side of the strategy switch and of
#: the block and tile edges at full tile width.
EDGE_ORDERS = [1, 2, 3, PROJECT_ROWS - 1, PROJECT_ROWS, PROJECT_ROWS + 1, 2048]
EDGE_COLS = [
    0, 1, RECURRENCE_MIN_COLS - 1, RECURRENCE_MIN_COLS,
    PROJECT_COLS - 1, PROJECT_COLS, PROJECT_COLS + 1, 10_000,
]


#: The numpy kernel blocks; the reference backend contracts its own table.
#: The package conftest restores the default backend after each test.
on_each_backend = pytest.mark.parametrize("backend", ["numpy", "reference"])


class TestParity:
    @on_each_backend
    @settings(max_examples=30, deadline=None)
    @given(
        order=st.one_of(st.sampled_from(EDGE_ORDERS), st.integers(min_value=1, max_value=2048)),
        cols=st.one_of(st.sampled_from(EDGE_COLS), st.integers(min_value=0, max_value=10_000)),
        width=st.sampled_from([None, 1, 3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_batches(self, backend, order, cols, width, seed):
        set_backend(backend)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, 1.0, size=cols)
        assert_projection_matches(order, positions, make_weights(rng, cols, width))

    @pytest.mark.parametrize(
        "cols", [RECURRENCE_MIN_COLS - 1, PROJECT_COLS + 1, 2 * PROJECT_COLS + 3]
    )
    @pytest.mark.parametrize("order", [3, PROJECT_ROWS + 1, 700])
    def test_multi_tile_batches(self, order, cols):
        """Every tile and block edge of the numpy kernel, up to three tiles."""
        rng = np.random.default_rng(order * 100_003 + cols)
        positions = rng.uniform(0.0, 1.0, size=cols)
        for width in (None, 2):
            assert_projection_matches(order, positions, make_weights(rng, cols, width))

    @on_each_backend
    @pytest.mark.parametrize("grid", ["midpoint", "endpoint"])
    def test_domain_grid_with_matrix_weights(self, backend, grid):
        set_backend(backend)
        domain = Domain.of_size(3000)
        rng = np.random.default_rng(5)
        assert_projection_matches(700, domain.grid(grid), make_weights(rng, 3000, 4))

    @on_each_backend
    def test_no_columns_project_to_zero(self, backend):
        set_backend(backend)
        assert np.array_equal(phi_block(5, np.empty(0), weights=np.empty(0)), np.zeros(5))
        assert phi_block(5, np.empty(0), weights=np.empty((0, 2))).shape == (5, 2)


class TestInterface:
    def test_weights_must_match_the_batch(self):
        with pytest.raises(ValueError, match="weights must have shape"):
            phi_block(4, np.array([0.25, 0.75]), weights=np.ones(3))
        with pytest.raises(ValueError, match="weights must have shape"):
            phi_block(4, np.array([0.25, 0.75]), weights=np.ones((2, 2, 2)))

    def test_out_is_refused_with_weights(self):
        positions = np.array([0.25, 0.75])
        with pytest.raises(ValueError, match="out="):
            phi_block(4, positions, np.empty((4, 2)), weights=np.ones(2))

    def test_order_and_positions_validated(self):
        with pytest.raises(ValueError, match="order"):
            phi_block(0, np.array([0.5]), weights=np.ones(1))
        with pytest.raises(ValueError, match="1-d"):
            phi_block(4, np.zeros((2, 2)), weights=np.ones(2))


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The numpy backend's coefficient paths hold blocks, not the table."""

    @pytest.fixture(autouse=True)
    def numpy_backend(self):
        set_backend("numpy")

    def test_batch_build_over_a_large_domain(self):
        domain = Domain.of_size(16_384)
        counts = np.random.default_rng(0).integers(0, 5, domain.size).astype(float)
        assert peak_bytes(lambda: CosineSynopsis.from_counts(domain, counts, budget=1024)) < 8 * MB

    def test_checkpoint_restore_over_a_large_domain(self, tmp_path):
        domain = Domain.of_size(16_384)
        engine = StreamEngine(seed=0)
        engine.create_relation("R1", ["A"], [domain])
        engine.create_relation("R2", ["A"], [domain])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        engine.register_query("q", query, method="cosine", budget=1024)
        rng = np.random.default_rng(1)
        for name in ("R1", "R2"):
            engine.ingest_batch(name, rng.integers(0, domain.size, size=(20_000, 1)))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        restored = []
        assert peak_bytes(lambda: restored.append(StreamEngine.load_checkpoint(path))) < 8 * MB
        assert restored[0].answer("q") == engine.answer("q")

    def test_batch_update_at_fleet_size(self):
        domain = Domain.of_size(16_384)
        synopsis = CosineSynopsis(domain, budget=1024)
        assert synopsis.order == 1024
        rows = np.random.default_rng(2).permutation(domain.size)[:3200, None]
        synopsis.insert_batch(rows)  # first call pays one-off imports and caches
        assert peak_bytes(lambda: synopsis.insert_batch(rows)) < 4 * MB
