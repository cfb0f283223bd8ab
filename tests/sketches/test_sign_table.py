"""The lazily filled sign table behind :class:`SignFamily`.

A family small enough hashes each domain value once and serves every later
read from an ``(n, S)`` int8 table.  Whatever order the table fills in, a
read must equal the direct polynomial formula; indices outside the domain
must raise before any table read; the matrix view must be read-only; and
a family above the size bound must keep no table at all.  One engine hands
every sketch of a ``(domain, S, seed)`` the same family, and releases it
with its last holder.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.sketches import hashing
from repro.sketches.basic import AGMSSketch, split_budget
from repro.sketches.hashing import MERSENNE_P, SignFamily
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind


def direct_signs(family, indices):
    """The ±1 signs straight from the polynomial values, ``(S, B)``."""
    return (family.hash_values(indices) & np.uint64(1)).astype(np.int8) * 2 - 1


def python_polynomials(family, values):
    """``(S, B)`` polynomial values mod p, evaluated with Python integers."""
    p = int(MERSENNE_P)
    return np.array(
        [
            [(c0 * v**3 + c1 * v**2 + c2 * v + c3) % p for v in values.tolist()]
            for c0, c1, c2, c3 in family._coeffs.tolist()
        ],
        dtype=np.uint64,
    ).reshape(family.num_functions, len(values))


@st.composite
def fills(draw):
    n = draw(st.integers(1, 4096))
    s = draw(st.integers(1, 300))
    batches = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=64), min_size=1, max_size=6)
    )
    return n, s, draw(st.integers(0, 2**32 - 1)), batches


class TestParity:
    @settings(max_examples=40, deadline=None)
    @given(fills())
    def test_table_reads_equal_the_direct_formula(self, case):
        # Scattered batches, with duplicates, fill the table in any order;
        # every read, and the final matrix, must match the formula.
        n, s, seed, batches = case
        family = SignFamily(n, s, seed=seed)
        for batch in batches:
            idx = np.array(batch, dtype=np.int64)
            np.testing.assert_array_equal(family.signs(idx), direct_signs(family, idx))
        np.testing.assert_array_equal(family.sign_matrix(), direct_signs(family, np.arange(n)))

    def test_hash_values_match_python_integer_horner(self):
        family = SignFamily(5000, 7, seed=11)
        values = np.array([0, 1, 2, 4095, 4999])
        p = int(MERSENNE_P)
        expected = [
            [
                ((((int(c[0]) * v + int(c[1])) % p) * v + int(c[2])) % p * v + int(c[3])) % p
                for v in values.tolist()
            ]
            for c in family._coeffs
        ]
        np.testing.assert_array_equal(family.hash_values(values), np.array(expected))

    @pytest.mark.parametrize("num_functions", [1, 2, 255, 10_000])
    @pytest.mark.parametrize("coefficients", ["random", "all p - 1", "lead 1"])
    def test_kernel_equals_python_integer_polynomials(self, num_functions, coefficients):
        # The largest sums (every coefficient p - 1) come within a factor of
        # 4/3 of 2^64; values near p sit on an untabled family's domain.
        p = int(MERSENNE_P)
        for n in (5, p - 1):
            family = SignFamily(n, num_functions, seed=n + num_functions)
            if coefficients == "all p - 1":
                family._coeffs[:] = p - 1
            elif coefficients == "lead 1":
                family._coeffs[:, 0] = 1
            values = np.array(sorted({0, 1, 2, n - 1, max(0, n - 2), n // 2}))
            expected = python_polynomials(family, values)
            np.testing.assert_array_equal(family.hash_values(values), expected)
            signs = (expected & 1).astype(np.int8) * 2 - 1
            np.testing.assert_array_equal(family.signs(values), signs)
            assert (family._table is None) == (n == p - 1)
            if family._table is not None:
                np.testing.assert_array_equal(family.sign_matrix()[:, values], signs)

    def test_untabled_family_matches_tabled_one(self, monkeypatch):
        tabled = SignFamily(700, 90, seed=4)
        monkeypatch.setattr(hashing, "SIGN_TABLE_MAX_BYTES", 0)
        untabled = SignFamily(700, 90, seed=4)
        idx = np.random.default_rng(0).integers(0, 700, 300)
        np.testing.assert_array_equal(untabled.signs(idx), tabled.signs(idx))
        np.testing.assert_array_equal(untabled.sign_matrix(), tabled.sign_matrix())


class TestGuards:
    @pytest.mark.parametrize("tabled", [True, False])
    @pytest.mark.parametrize("bad", [[-1], [10], [3, -1], [9, 10], [-(2**40)], [2**40]])
    def test_out_of_domain_indices_raise(self, monkeypatch, tabled, bad):
        if not tabled:
            monkeypatch.setattr(hashing, "SIGN_TABLE_MAX_BYTES", 0)
        family = SignFamily(10, 4, seed=5)
        assert (family._table is not None) == tabled
        with pytest.raises(ValueError, match="outside"):
            family.signs(np.array(bad))
        sketch = AGMSSketch(family, 4, 1)
        with pytest.raises(ValueError, match="outside"):  # the engine's distinct-cell path
            sketch.update_batch(np.array(bad), multiplicity=np.ones(len(bad), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            sketch.update(bad[-1])
        if tabled:  # the rejected batch hashed nothing into the table
            assert not family._table.any()
        # a negative index never reads the last row
        np.testing.assert_array_equal(family.signs(np.array([9])), direct_signs(family, [9]))

    def test_sign_matrix_view_is_read_only(self):
        family = SignFamily(64, 8, seed=2)
        matrix = family.sign_matrix()
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0
        # rows handed out by signs() are copies: editing them corrupts nothing
        rows = family.signs(np.arange(64))
        rows *= -1
        np.testing.assert_array_equal(family.sign_matrix(), SignFamily(64, 8, seed=2).sign_matrix())


def build(shape, counts_seed):
    rng = np.random.default_rng(counts_seed)
    families = [SignFamily(n, 15, seed=10 + j) for j, n in enumerate(shape)]
    counts = rng.integers(0, 3, size=shape)
    rows = np.argwhere(counts > 0)
    return families, counts, np.repeat(rows, counts[tuple(rows.T)], axis=0)


class TestContractionParity:
    @pytest.mark.parametrize("shape", [(300,), (40, 12), (10, 7, 5)])
    def test_from_counts_equals_per_tuple_updates(self, shape):
        families, counts, rows = build(shape, counts_seed=1)
        per_tuple = AGMSSketch(families, 5, 3)
        for row in rows:
            per_tuple.update(row.tolist())
        built = AGMSSketch.from_counts(families, counts.astype(float), 5, 3)
        np.testing.assert_array_equal(built.atoms, per_tuple.atoms)
        assert built.count == per_tuple.count == rows.shape[0]

    @pytest.mark.parametrize("shape", [(300,), (40, 12), (10, 7, 5)])
    def test_update_batch_with_deletes_equals_per_tuple_updates(self, shape):
        families, _, rows = build(shape, counts_seed=2)
        gone = rows[::3]
        per_tuple = AGMSSketch(families, 5, 3)
        for row in rows:
            per_tuple.update(row.tolist())
        for row in gone:
            per_tuple.update(row.tolist(), weight=-1)
        batched = AGMSSketch(families, 5, 3)
        batched.update_batch(rows, chunk=7)
        batched.update_batch(gone, weight=-1)
        np.testing.assert_array_equal(batched.atoms, per_tuple.atoms)
        assert batched.count == per_tuple.count


def dense_from_counts(families, counts, s1, s2):
    """The whole-domain contraction ``from_counts`` ran before it was blocked."""
    counts = np.asarray(counts, dtype=float)
    if not counts.any():
        return np.zeros(s1 * s2), 0
    first, *rest = families
    flat = first.sign_matrix().astype(float) @ counts.reshape(counts.shape[0], -1)
    tensor = flat.reshape(flat.shape[:1] + counts.shape[1:])
    for fam in rest:
        tensor = np.einsum("sj...,sj->s...", tensor, fam.sign_matrix().astype(float))
    return tensor.reshape(s1 * s2).astype(float).copy(), int(round(counts.sum()))


#: Function counts ``S`` and their ``(s1, s2)`` grids; a block holds 128 and 8 values.
GEOMETRIES = {255: (51, 5), 4095: (819, 5)}


def block_shapes(width):
    """Axis sizes at a block width, one below and one above it, on 1-3 axes."""
    return [
        (width - 1,),
        (width,),
        (width + 1,),
        (width + 1, width - 1),
        (width, 2, width + 1),
        (3, width + 1, width),
    ]


class TestBlockedContraction:
    @pytest.mark.parametrize("tabled", [True, False])
    @pytest.mark.parametrize("num_functions", sorted(GEOMETRIES))
    def test_from_counts_equals_the_dense_contraction(self, monkeypatch, tabled, num_functions):
        if not tabled:
            monkeypatch.setattr(hashing, "SIGN_TABLE_MAX_BYTES", 0)
        s1, s2 = GEOMETRIES[num_functions]
        width = hashing.HASH_BLOCK_CELLS // num_functions
        rng = np.random.default_rng(num_functions)
        for shape in block_shapes(width):
            families = [SignFamily(n, num_functions, seed=20 + j) for j, n in enumerate(shape)]
            assert all((f._table is not None) == tabled for f in families)
            cases = {
                "zeros": np.zeros(shape, dtype=np.int64),
                "sparse": rng.integers(0, 2, shape) * rng.integers(0, 10**6, shape),
                "dense": rng.integers(0, 7, shape),
                "last value only": np.zeros(shape, dtype=np.int64),
            }
            cases["last value only"][-1] = 5
            for name, counts in cases.items():
                built = AGMSSketch.from_counts(families, counts, s1, s2)
                atoms, count = dense_from_counts(families, counts, s1, s2)
                assert built.atoms.tobytes() == atoms.tobytes(), (shape, name)
                assert built.atoms.dtype == np.float64 and built.atoms.shape == (s1 * s2,)
                assert built.count == count == int(counts.sum())

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_tensors_equal_the_dense_contraction(self, data):
        num_functions = data.draw(st.sampled_from(sorted(GEOMETRIES)))
        s1, s2 = GEOMETRIES[num_functions]
        width = hashing.HASH_BLOCK_CELLS // num_functions
        shape = (data.draw(st.integers(1, 2 * width + 1)),) + tuple(
            data.draw(st.lists(st.integers(1, 9), max_size=2))
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, shape) * rng.integers(0, 1000, shape)
        families = [SignFamily(n, num_functions, seed=seed + j) for j, n in enumerate(shape)]
        built = AGMSSketch.from_counts(families, counts, s1, s2)
        atoms, count = dense_from_counts(families, counts, s1, s2)
        assert built.atoms.tobytes() == atoms.tobytes()
        assert built.count == count

    def test_float_and_integer_tensors_build_the_same_sketch(self):
        families = [SignFamily(300, 255, seed=1), SignFamily(7, 255, seed=2)]
        counts = np.random.default_rng(3).integers(0, 9, (300, 7))
        as_int = AGMSSketch.from_counts(families, counts, 51, 5)
        as_float = AGMSSketch.from_counts(families, counts.astype(float), 51, 5)
        assert as_int.atoms.tobytes() == as_float.atoms.tobytes()
        assert as_int.count == as_float.count == int(counts.sum())


class TestMemory:
    @pytest.mark.parametrize("n, bound_mb", [(16_384, 2), (65_536, 4)])
    def test_registration_holds_one_block_of_signs(self, n, bound_mb):
        # The family's table is allocated before tracing starts, so the peak
        # is what registration holds beyond it; the whole-domain float copy
        # of the signs it replaced took 32 MB at n = 16,384 and 128 MB at
        # n = 65,536.
        family = SignFamily(n, 255, seed=4)
        counts = np.random.default_rng(4).integers(0, 50, n)
        tracemalloc.start()
        try:
            AGMSSketch.from_counts(family, counts, 51, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family._table is not None
        assert peak < bound_mb << 20

    def test_full_domain_fill_scatters_block_by_block(self):
        # Hashed blocks go straight into the table: beyond it, a fill of the
        # whole domain holds the index arrays and one block's buffers
        # (934 KiB at n = 16,384, where a (n, S) int8 copy made 4.9 MB).
        family = SignFamily(16_384, 255, seed=5)
        tracemalloc.start()
        try:
            family.sign_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1536 << 10
        np.testing.assert_array_equal(
            family.sign_matrix()[:, ::997], direct_signs(family, np.arange(0, 16_384, 997))
        )

    def test_family_above_the_bound_allocates_no_table(self):
        # section 5.4's shape: 100,000 values x 10,000 functions (~1 GB of signs)
        s1, s2 = split_budget(10_000)
        tracemalloc.start()
        try:
            family = SignFamily(100_000, s1 * s2, seed=0)
            built = tracemalloc.get_traced_memory()[1]
            sketch = AGMSSketch(family, s1, s2)
            sketch.update_batch(np.random.default_rng(0).integers(0, 100_000, 5_000))
            updated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family._table is None
        assert built < 1 << 20  # the coefficients only
        # per-call hashing in L2-sized blocks: about 22 MB, where one
        # (S, 4096)-chunk evaluation used to peak near 940 MB
        assert updated < 64 << 20

    @pytest.mark.parametrize("n, s, step", [(4096, 255, 1), (4096, 255, 2), (100_000, 10_000, 24)])
    def test_hashing_transient_stays_block_sized(self, n, s, step):
        # Beyond the (B, S) signs it hashes, hashing holds one block's two
        # uint64 buffers (512 KiB) and the batch's index arrays.
        family = SignFamily(n, s, seed=3)
        values = np.arange(0, n, step)
        tracemalloc.start()
        try:
            if family._table is None:
                family.signs(values)
            else:
                family.fill(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.size * s < 768 << 10

    def test_hash_values_holds_one_batch_sized_buffer(self):
        # The (B, S) uint64 values it returns, plus one block of quotients.
        family = SignFamily(100_000, 10_000, seed=3)
        values = np.arange(0, 100_000, 1_000)
        tracemalloc.start()
        try:
            family.hash_values(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.size * 10_000 * 8 < 512 << 10


def chain_engine(seed=0):
    engine = StreamEngine(seed=seed)
    a, b = Domain.of_size(64), Domain.of_size(16)
    engine.create_relation("R1", ["A"], [a])
    engine.create_relation("R2", ["A", "B"], [a, b])
    engine.create_relation("R3", ["B"], [b])
    rng = np.random.default_rng(seed)
    engine.ingest_batch("R1", rng.integers(0, 64, (200, 1)))
    engine.ingest_batch("R2", np.stack([rng.integers(0, 64, 200), rng.integers(0, 16, 200)], 1))
    engine.ingest_batch("R3", rng.integers(0, 16, (200, 1)))
    pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
    engine.register_query("pair", pair, method="basic_sketch", budget=64)
    engine.register_query("skim", pair, method="skimmed_sketch", budget=64)
    engine.register_query("chain", chain, method="basic_sketch", budget=64)
    return engine


def sketch_families(engine):
    """Every sign family held by the engine's AGMS sketches, by domain size."""
    found: dict[int, list[SignFamily]] = {}
    for share in engine._shared.values():
        sketch = getattr(share.observer, "sketch", None)
        if isinstance(sketch, AGMSSketch):
            for family in sketch.families:
                found.setdefault(family.domain_size, []).append(family)
    return found


class TestEngineFamilies:
    def test_one_family_per_predicate_across_queries(self):
        engine = chain_engine()
        found = sketch_families(engine)
        # predicate 0 (A): R1's sketch (shared by all three queries), R2's
        # pair sketch (shared with the skimmed query) and R2's chain sketch;
        # predicate 1 (B): the chain's R2 and R3 sketches
        assert len(found[64]) == 3 and len(found[16]) == 2
        assert len({id(f) for f in found[64]}) == 1
        assert len({id(f) for f in found[16]}) == 1
        for name in ("pair", "skim", "chain"):
            assert np.isfinite(engine.answer(name))

    def test_two_engines_share_nothing(self):
        first, second = chain_engine(), chain_engine()
        ids = {id(f) for group in sketch_families(first).values() for f in group}
        assert ids.isdisjoint(
            id(f) for group in sketch_families(second).values() for f in group
        )
        assert first.answers() == second.answers()

    def test_shared_tables_keep_atoms_exact(self):
        # after batched inserts and deletes through one shared table, every
        # sketch equals one built from scratch with private families
        engine = chain_engine()
        rows = np.random.default_rng(9).integers(0, 64, (50, 1))
        engine.ingest_batch("R1", rows)
        engine.ingest_batch("R1", rows[:20], kind=OpKind.DELETE)
        checked = 0
        for share in engine._shared.values():
            sketch = getattr(share.observer, "sketch", None)
            if not isinstance(sketch, AGMSSketch):
                continue
            counts = share.relation.counts
            dropped = tuple(ax for ax in range(counts.ndim) if ax not in share.observer.axes)
            private = [SignFamily(f.domain_size, f.num_functions, f.seed) for f in sketch.families]
            expected = AGMSSketch.from_counts(
                private, counts.sum(axis=dropped), sketch.num_means, sketch.num_medians
            )
            np.testing.assert_array_equal(sketch.atoms, expected.atoms)
            checked += 1
        assert checked == 4

    def test_unregistering_every_holder_releases_the_family(self):
        engine = chain_engine()
        family = weakref.ref(sketch_families(engine)[64][0])
        engine.unregister_query("pair")
        engine.unregister_query("skim")
        gc.collect()
        assert family() is not None  # the chain still holds it
        engine.unregister_query("chain")
        gc.collect()
        assert family() is None
        assert len(engine._families) == 0

    def test_partitioned_sides_share_families_across_a_checkpoint(self, tmp_path):
        engine = chain_engine()
        pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        engine.register_query("part", pair, method="partitioned_sketch", budget=64, partitions=4)

        def sides(engine):
            return [observer.synopsis for _, observer in engine._queries["part"].attachments]

        left, right = sides(engine)
        assert left.num_partitions == 4
        for a, b in zip(left.sketches, right.sketches):
            assert a.families[0] is b.families[0]
        answer = engine.answer("part")
        engine.save_checkpoint(tmp_path / "part.ckpt")
        restored = StreamEngine.load_checkpoint(tmp_path / "part.ckpt")
        left, right = sides(restored)
        for a, b in zip(left.sketches, right.sketches):
            assert a.families[0] is b.families[0]
        assert restored.answer("part") == answer
