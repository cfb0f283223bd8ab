"""Synopses shared across queries, fed one frequency delta per batch.

Queries whose specs give the same synopsis key (relation, axes, unified
domains, kind, budget and options, sign-family seeds) hold one observer:
answers must equal a lone query's, unregistering must keep the survivors
answering, a fault must degrade every holder, and checkpoints must store
each shared observer once.  The per-batch delta feeding them must leave
AGMS atoms and sample replays bit-identical to the per-row and per-cell
reference loops.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.core.synopsis import CosineSynopsis
from repro.resilience.checkpoint import read_checkpoint
from repro.resilience.errors import DegradedQueryError
from repro.sketches.basic import AGMSSketch
from repro.sketches.hashing import SignFamily
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

NA, NB = 12, 10
BUDGET = 16
QUERY = JoinQuery.parse(["R", "S"], ["R.B = S.B"])
LINEAR = ["cosine", "basic_sketch", "skimmed_sketch", "histogram"]


def make_engine(seed=3):
    engine = StreamEngine(seed=seed)
    engine.create_relation("R", ["A", "B"], [Domain.of_size(NA), Domain.of_size(NB)])
    engine.create_relation("S", ["B"], [Domain.of_size(NB)])
    return engine


def feed(engine, seed=0, batches=6):
    """Inserts into both relations, with deletes of live R rows."""
    rng = np.random.default_rng(seed)
    for i in range(batches):
        r = np.column_stack([rng.integers(0, NA, 40), rng.integers(0, NB, 40)])
        engine.ingest_batch("R", r)
        engine.ingest_batch("S", rng.integers(0, NB, 30)[:, None])
        if i % 2:
            engine.ingest_batch("R", r[:15], OpKind.DELETE)


def observer_count(engine):
    return sum(len(rel._observers) for rel in engine.relations.values())


def exploding(relation, rows, kind):
    raise RuntimeError("synopsis exploded")


class TestIdenticalQueries:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("method", LINEAR)
    def test_k_queries_answer_as_one_with_one_observer_per_key(self, method, k):
        one = make_engine()
        one.register_query("q0", QUERY, method=method, budget=BUDGET, bounds=True)
        feed(one)
        many = make_engine()
        for i in range(k):
            many.register_query(f"q{i}", QUERY, method=method, budget=BUDGET, bounds=True)
        feed(many)
        for i in range(k):
            assert many.answer(f"q{i}") == one.answer("q0")
            assert many.bound_report(f"q{i}") == one.bound_report("q0")
        assert observer_count(many) == observer_count(one) == len(many._shared)
        first = many._queries["q0"].attachments
        for i in range(1, k):
            assert all(
                a is b for (_, a), (_, b) in zip(first, many._queries[f"q{i}"].attachments)
            )

    def test_range_and_band_queries_share_marginals_but_not_join_synopses(self):
        engine = make_engine()
        engine.register_query("join", QUERY, method="cosine", budget=BUDGET)
        engine.register_band_query("band", ("R", "B"), ("S", "B"), width=1, budget=BUDGET)
        engine.register_range_query("range", "S", "B", 2, 6, budget=BUDGET)
        engine.register_range_query("range2", "S", "B", 2, 6, budget=BUDGET)
        feed(engine)
        # S: the join synopsis, and one marginal for the band and both
        # ranges; R: the join synopsis and the band's B marginal.
        assert len(engine.relations["S"]._observers) == 2
        assert len(engine.relations["R"]._observers) == 2
        alone = make_engine()
        alone.register_range_query("range", "S", "B", 2, 6, budget=BUDGET)
        feed(alone)
        assert engine.answer("range") == engine.answer("range2")
        assert engine.answer("range") == pytest.approx(alone.answer("range"), rel=1e-12)

    def test_different_budgets_or_domains_do_not_share(self):
        engine = make_engine()
        engine.create_relation("T", ["B"], [Domain.integer_range(0, 14)])
        engine.register_query("a", QUERY, method="cosine", budget=BUDGET)
        engine.register_query("b", QUERY, method="cosine", budget=BUDGET + 4)
        wide = JoinQuery.parse(["R", "T"], ["R.B = T.B"])
        engine.register_query("c", wide, method="basic_sketch", budget=BUDGET)
        engine.register_query("d", QUERY, method="basic_sketch", budget=BUDGET)
        # a, b: two budgets x two relations; c, d: R.B unified over two domains
        assert len(engine.relations["R"]._observers) == 4
        feed(engine)
        assert math.isfinite(engine.answer("c"))


class TestUnregister:
    @pytest.mark.parametrize("method", LINEAR)
    def test_survivor_still_answers_after_the_others_unregister(self, method):
        engine = make_engine()
        for i in range(3):
            engine.register_query(f"q{i}", QUERY, method=method, budget=BUDGET, bounds=True)
        reference = make_engine()
        reference.register_query("q", QUERY, method=method, budget=BUDGET, bounds=True)
        for target in (engine, reference):
            feed(target, seed=0, batches=3)
        engine.unregister_query("q0")
        engine.unregister_query("q2")
        for target in (engine, reference):
            feed(target, seed=1, batches=3)
        assert engine.answer("q1") == reference.answer("q")
        assert engine.estimate("q1", "upper_bound") == reference.estimate("q", "upper_bound")
        assert observer_count(engine) == observer_count(reference)
        engine.unregister_query("q1")
        assert engine._shared == {}
        assert observer_count(engine) == 0

    def test_failed_registration_keeps_existing_shares(self, monkeypatch):
        from repro.bounds.degree import DegreeSketch

        engine = make_engine()
        engine.register_query("ok", QUERY, method="cosine", budget=BUDGET)
        before = dict(engine._shared)
        loads = []

        def second_load_fails(self, counts):
            loads.append(counts)
            if len(loads) == 2:
                raise RuntimeError("replay failed")
            self.freq = np.asarray(counts, dtype=np.int64).copy()

        monkeypatch.setattr(DegreeSketch, "load_counts", second_load_fails)
        with pytest.raises(RuntimeError, match="replay failed"):
            engine.register_query("bad", QUERY, method="cosine", budget=BUDGET, bounds=True)
        # the shared cosine synopses stay, the first degree sketch is gone
        assert engine._shared == before
        assert all(share.holders == 1 for share in engine._shared.values())
        assert observer_count(engine) == 2
        assert "bad" not in engine.query_names()


class TestSharedFaults:
    def test_fault_in_a_shared_observer_degrades_every_holder(self):
        engine = make_engine()
        engine.enable_fault_isolation("raise")
        for i in range(3):
            engine.register_query(f"q{i}", QUERY, method="cosine", budget=BUDGET)
        engine.register_query("sketch", QUERY, method="basic_sketch", budget=BUDGET)
        feed(engine, batches=2)
        _, observer = engine._queries["q0"].attachments[0]
        observer.on_ops = exploding
        engine.ingest_batch("R", np.array([[1, 2], [3, 4]]))
        assert set(engine.degraded_queries()) == {"q0", "q1", "q2"}
        for i in range(3):
            with pytest.raises(DegradedQueryError):
                engine.answer(f"q{i}")
        assert math.isfinite(engine.answer("sketch"))
        gauge = engine.telemetry.registry.gauge(
            "repro_queries_degraded",
            "Registered queries currently degraded by a quarantined observer.",
        )
        assert gauge.value == 3
        # A later registration replays a fresh observer from history.
        engine.register_query("fresh", QUERY, method="cosine", budget=BUDGET)
        assert engine._queries["fresh"].attachments[0][1] is not observer
        reference = make_engine()
        feed(reference, batches=2)
        reference.ingest_batch("R", np.array([[1, 2], [3, 4]]))
        reference.register_query("fresh", QUERY, method="cosine", budget=BUDGET)
        assert engine.answer("fresh") == pytest.approx(reference.answer("fresh"), rel=1e-12)
        # Unregistering a degraded holder leaves the fresh share alone.
        engine.unregister_query("q1")
        assert math.isfinite(engine.answer("fresh"))


class TestCheckpointV2:
    def build(self):
        engine = make_engine()
        for i in range(4):
            engine.register_query(f"c{i}", QUERY, method="cosine", budget=BUDGET, bounds=i == 0)
        engine.register_query("agms", QUERY, method="basic_sketch", budget=BUDGET, bounds=True)
        engine.register_query("skim", QUERY, method="skimmed_sketch", budget=BUDGET)
        engine.register_query("hist", QUERY, method="histogram", budget=BUDGET)
        engine.register_query("samp", QUERY, method="sample", budget=BUDGET, probability=0.5)
        engine.register_range_query("range", "R", "A", 1, 7, budget=BUDGET)
        return engine

    def test_round_trip_stores_each_shared_observer_once(self, tmp_path):
        engine = self.build()
        rng = np.random.default_rng(4)
        for _ in range(3):
            rows = np.column_stack([rng.integers(0, NA, 30), rng.integers(0, NB, 30)])
            engine.ingest_batch("R", rows)
            engine.ingest_batch("S", rng.integers(0, NB, 25)[:, None])
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        payload = read_checkpoint(path)
        held = {id(obs) for state in engine._queries.values() for _, obs in state.attachments}
        assert len(payload["observers"]) == len(held) == len(engine._shared)
        entries = {entry["name"]: entry["observers"] for entry in payload["queries"]}
        assert entries["c1"] == entries["c2"] == entries["c3"] == entries["c0"][:2]
        assert entries["agms"][:2] == entries["skim"]
        assert entries["agms"][2:] == entries["c0"][2:]  # the shared degree sketches

        restored = StreamEngine.load_checkpoint(path)
        assert restored.answers() == engine.answers()
        assert len(restored._shared) == len(engine._shared)
        assert restored.bound_report("agms") == engine.bound_report("agms")
        for target in (engine, restored):
            target.ingest_batch("R", np.array([[0, 1], [5, 5], [5, 5]]))
            target.ingest_batch("S", np.array([[1], [5]]))
        assert restored.answers() == engine.answers()

    def test_degraded_holders_restore_without_clobbering_a_fresh_share(self, tmp_path):
        engine = make_engine()
        engine.enable_fault_isolation("nan")
        for i in range(2):
            engine.register_query(f"q{i}", QUERY, method="cosine", budget=BUDGET)
        feed(engine, batches=2)
        _, observer = engine._queries["q0"].attachments[0]
        observer.on_ops = exploding
        engine.ingest_batch("R", np.array([[1, 2]]))
        engine.register_query("fresh", QUERY, method="cosine", budget=BUDGET)
        feed(engine, seed=5, batches=2)
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        restored = StreamEngine.load_checkpoint(path)
        assert set(restored.degraded_queries()) == {"q0", "q1"}
        assert math.isnan(restored.answer("q1"))
        assert restored.answer("fresh") == engine.answer("fresh")

    def test_quarantined_share_stays_out_of_the_restored_table(self, tmp_path):
        engine = make_engine()
        engine.enable_fault_isolation("nan")
        for i in range(2):
            engine.register_query(f"q{i}", QUERY, method="cosine", budget=BUDGET)
        feed(engine, batches=2)
        _, observer = engine._queries["q0"].attachments[0]
        observer.on_ops = exploding
        engine.ingest_batch("R", np.array([[1, 2]]))
        feed(engine, seed=5, batches=2)
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        assert read_checkpoint(path)["quarantined"] == [0]
        restored = StreamEngine.load_checkpoint(path)
        assert observer_count(restored) == observer_count(engine)
        assert len(restored._shared) == len(engine._shared)
        # Later registrations of the quarantined key replay the history,
        # on the restored engine as on the original.
        for target in (engine, restored):
            target.register_query("fresh", QUERY, method="cosine", budget=BUDGET)
            target.unregister_query("q0")
            target.register_query("q0", QUERY, method="cosine", budget=BUDGET)
            feed(target, seed=6, batches=1)
        assert set(restored.degraded_queries()) == set(engine.degraded_queries()) == {"q1"}
        for name in ("fresh", "q0"):
            assert restored.answer(name) == engine.answer(name)
        reference = make_engine()
        feed(reference, batches=2)
        reference.ingest_batch("R", np.array([[1, 2]]))
        feed(reference, seed=5, batches=2)
        reference.register_query("fresh", QUERY, method="cosine", budget=BUDGET)
        feed(reference, seed=6, batches=1)
        assert restored.answer("fresh") == pytest.approx(reference.answer("fresh"), rel=1e-12)


class TestBatchDelta:
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_distinct_cell_agms_update_matches_the_per_row_update(self, ndim):
        sizes = [40, 7][:ndim]
        families = [SignFamily(n, 45, seed=11 + j) for j, n in enumerate(sizes)]
        rng = np.random.default_rng(ndim)
        by_cells = AGMSSketch(families, 15, 3)
        per_row = AGMSSketch(families, 15, 3)
        by_delta = AGMSSketch(families, 15, 3)
        inserted = []
        for step in range(6):
            if step % 3 == 2:
                rows, weight = inserted.pop(0)[:25], -1
            else:
                rows = np.column_stack([(rng.zipf(1.5, 60) - 1) % n for n in sizes])
                inserted.append(rows)
                weight = 1
            by_cells.update_batch(rows, weight=weight, chunk=5)
            for row in rows:
                per_row.update([int(v) for v in row], weight=weight)
            cells, counts = np.unique(rows, axis=0, return_counts=True)
            by_delta.update_batch(cells, weight=weight, multiplicity=counts)
        np.testing.assert_array_equal(by_cells.atoms, per_row.atoms)
        np.testing.assert_array_equal(by_delta.atoms, per_row.atoms)
        assert by_cells.count == per_row.count == by_delta.count

    def test_every_observer_reads_one_delta_per_batch(self, monkeypatch):
        from repro.streams.relation import BatchDelta

        engine = make_engine()
        for method in LINEAR:
            engine.register_query(method, QUERY, method=method, budget=BUDGET, bounds=True)
        made = []
        original = BatchDelta.of.__func__

        def counting(cls, *args):
            made.append(args[-1])
            return original(cls, *args)

        monkeypatch.setattr(BatchDelta, "of", classmethod(counting))
        engine.ingest_batch("R", np.array([[1, 2], [1, 2], [3, 4]]))
        engine.ingest_batch("R", np.array([[1, 2]]), OpKind.DELETE)
        assert made == [OpKind.INSERT, OpKind.DELETE]
        assert engine.relations["R"]._delta is None

    def test_bare_relation_builds_no_delta(self, monkeypatch):
        from repro.streams.relation import BatchDelta

        engine = make_engine()
        monkeypatch.setattr(BatchDelta, "of", None)
        engine.ingest_batch("R", np.array([[1, 2], [1, 2]]))
        assert engine.relations["R"].count == 2

    def test_marginal_sums_the_projected_cells(self):
        engine = make_engine()
        relation = engine.relations["R"]
        rows = np.array([[1, 2], [3, 2], [1, 2], [1, 5]])
        delta = relation.batch_delta(rows, OpKind.INSERT)
        assert delta.counts.tolist() == [2, 1, 1]
        assert delta.indices([None, None]).tolist() == [[1, 2], [1, 5], [3, 2]]
        on_b = delta.marginal([1])
        assert on_b.indices([None])[:, 0].tolist() == [2, 5]
        assert on_b.counts.tolist() == [3, 1]
        assert delta.marginal([1]) is on_b
        assert delta.marginal([0, 1]) is delta


class TestIndexFedCosine:
    """Cosine observers read the batch's unified indices, never raw values."""

    def test_insert_batch_gets_int64_unified_indices(self, monkeypatch):
        calls = []
        real = CosineSynopsis.insert_batch

        def spy(self, rows, multiplicity=None):
            calls.append((self, rows, multiplicity))
            return real(self, rows, multiplicity)

        monkeypatch.setattr(CosineSynopsis, "insert_batch", spy)
        engine = StreamEngine(seed=0)
        # R.A (3..8) unifies with S.A (2..11) to 2..11: value v has index v - 2.
        engine.create_relation("R", ["A", "B"], [Domain.integer_range(3, 8), Domain.of_size(4)])
        engine.create_relation("S", ["A"], [Domain.integer_range(2, 11)])
        engine.register_query(
            "q", JoinQuery.parse(["R", "S"], ["R.A = S.A"]), method="cosine", budget=BUDGET
        )
        engine.ingest_batch("R", np.array([[3, 0], [8, 3], [3, 0]]))
        ((synopsis, rows, counts),) = calls
        assert synopsis.domains == (Domain.of_size(10), Domain.of_size(4))
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, 0], [6, 3]]
        assert counts.tolist() == [2, 1]


class TestRegistrationReplay:
    def test_empty_relation_registration_builds_no_basis_table(self, monkeypatch):
        import repro.core.synopsis as synopsis_module

        calls = []
        # Every kernel entry point the synopsis calls: the basis projection
        # (per-cell or the DCT) and the inverse transform.
        for name in ("phi_block", "phi_expand"):
            real = getattr(synopsis_module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(synopsis_module, name, counting)
        engine = make_engine()
        engine.register_query("q", QUERY, method="cosine", budget=BUDGET, bounds=True)
        engine.register_range_query("range", "R", "A", 1, 7, budget=BUDGET)
        assert calls == []
        for _, observer in engine._queries["q"].attachments[:2]:
            fresh = CosineSynopsis(observer.synopsis.domains, budget=BUDGET)
            sums = observer.synopsis.state_dict()["sums"]
            assert np.array_equal(sums, fresh.state_dict()["sums"])
            assert observer.synopsis.count == 0
        engine.ingest_batch("S", np.array([[1], [2]]))
        assert calls  # the first batch builds its table as usual

    def test_sample_thinning_matches_the_per_cell_loop(self):
        engine = StreamEngine(seed=7)
        a, b = Domain.of_size(8), Domain.of_size(6)
        engine.create_relation("R1", ["A"], [a])
        engine.create_relation("R2", ["A", "B"], [a, b])
        engine.create_relation("R3", ["B"], [b])
        rng = np.random.default_rng(0)
        engine.ingest_batch("R1", rng.integers(0, 8, 50)[:, None])
        pairs = np.column_stack([rng.integers(0, 8, 200), rng.integers(0, 6, 200)])
        engine.ingest_batch("R2", pairs)
        engine.ingest_batch("R3", rng.integers(0, 6, 40)[:, None])
        chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
        engine.register_query("s", chain, method="sample", budget=20, probability=0.4)

        # The per-cell loop _build_sample used to run, kept as the reference.
        reference = np.random.default_rng(7)
        expected = []
        for rel_name, axes in (("R1", (0,)), ("R2", (0, 1)), ("R3", (0,))):
            seed = int(reference.integers(1 << 31))
            counts = engine.relations[rel_name].counts
            drop = tuple(ax for ax in range(counts.ndim) if ax not in axes)
            marginal = counts.sum(axis=drop) if drop else counts
            counter = Counter()
            size = 0
            for cell in np.argwhere(marginal > 0):
                kept = int(reference.binomial(int(marginal[tuple(cell)]), 0.4))
                if kept:
                    key = tuple(int(c) for c in cell)
                    counter[key if len(key) > 1 else key[0]] += kept
                    size += kept
            expected.append((seed, counter, size))

        observers = [obs for _, obs in engine._queries["s"].attachments]
        for (seed, counter, size), observer in zip(expected, observers):
            sample = observer.sample
            cells = zip(*(c.tolist() for c in np.unravel_index(sample.cells, sample.shape)))
            kept = {c if len(c) > 1 else c[0]: n for c, n in zip(cells, sample.counts.tolist())}
            assert kept == dict(counter)
            assert sample.sampled_size == size
            rng_state = np.random.default_rng(seed).bit_generator.state
            assert sample.state_dict()["rng_state"] == rng_state
