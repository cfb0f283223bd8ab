"""Per-op ingestion equals the synopses' per-tuple methods, bit for bit.

Relations deliver every operation as a batch, a single tuple as a batch of
one.  This suite copies each query's synopses right after registration, then
drives the engine per op and drives the copies through the per-tuple methods
(``CosineSynopsis.insert`` / ``delete``, ``AGMSSketch.update``,
``BernoulliSample.insert``, ``EquiWidthHistogram.update``,
``HaarSynopsis.update``, ``PartitionedSketch.update``,
``DegreeSketch.update``).  The copies map raw values to unified indices here,
in the test, with ``Domain.index_of``.  Every ``state_dict()`` must match byte
for byte.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.degree import DegreeObserver
from repro.core.normalization import Domain
from repro.sketches.partitioned import PartitionedSketch
from repro.streams import engine as engine_module
from repro.streams.engine import StreamEngine
from repro.streams.queries import JoinQuery
from repro.streams.tuples import OpKind, StreamOp

LINEAR_METHODS = (
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "histogram",
    "wavelet",
    "partitioned_sketch",
)


def _domains(kind):
    """The join attribute's domain in R1 and in R2: they unify to a wider one."""
    if kind == "offset":
        return Domain.integer_range(3, 20), Domain.integer_range(-2, 12)
    return (
        Domain.categorical(["a", "b", "c", "d", "e", "f"]),
        Domain.categorical(["d", "e", "g", "h", "a"]),
    )


def _values(domain):
    if domain.is_categorical:
        return list(domain._categories)
    return list(range(domain.low, domain.high + 1))


def _engine(kind, arity, methods, rng):
    """R1(A, B) or R1(B) joined to R2(B) on B; history ingested, queries registered."""
    join_r1, join_r2 = _domains(kind)
    engine = StreamEngine(seed=5)
    if arity == 2:
        engine.create_relation("R1", ["A", "B"], [Domain.integer_range(1, 4), join_r1])
    else:
        engine.create_relation("R1", ["B"], [join_r1])
    engine.create_relation("R2", ["B"], [join_r2])
    for name in ("R1", "R2"):
        relation = engine.relations[name]
        history = [
            tuple(rng.choice(_values(d)).item() for d in relation.domains) for _ in range(12)
        ]
        relation.insert_rows(history)
    query = JoinQuery.parse(["R1", "R2"], ["R1.B = R2.B"])
    for method in methods:
        options = {"probability": 0.5} if method == "sample" else {}
        engine.register_query(method, query, method=method, budget=48, bounds=True, **options)
    return engine, query


def _unified(engine, query):
    schemas = {r: engine.relations[r].attributes for r in query.relations}
    domains = {r: engine.relations[r].domains for r in query.relations}
    return query.unified_domains(schemas, domains)


def _per_tuple_twin(observer, unified):
    """``(synopsis, apply(op))``: a copy of the observer's synopsis and its per-tuple update."""
    if isinstance(observer, engine_module._CosineObserver):
        synopsis = copy.deepcopy(observer.synopsis)

        def apply(op):
            cell = [unified[ax].index_of(op.values[ax]) for ax in observer.axes]
            (synopsis.insert if op.kind is OpKind.INSERT else synopsis.delete)(cell)

    elif isinstance(observer, engine_module._SketchObserver):
        synopsis = copy.deepcopy(observer.sketch)

        def apply(op):
            cell = [unified[ax].index_of(op.values[ax]) for ax in observer.axes]
            synopsis.update(cell, weight=op.weight)

    elif isinstance(observer, engine_module._SampleObserver):
        synopsis = copy.deepcopy(observer.sample)

        def apply(op):
            synopsis.insert([unified[ax].index_of(op.values[ax]) for ax in observer.axes])

    elif isinstance(observer, engine_module._AxisObserver):
        synopsis = copy.deepcopy(observer.synopsis)
        axis = observer.axis
        if isinstance(synopsis, PartitionedSketch):

            def apply(op):
                synopsis.update(unified[axis].index_of(op.values[axis]), weight=op.weight)

        else:  # the histogram and the Haar synopsis take raw values

            def apply(op):
                synopsis.update(op.values[axis], weight=op.weight)

    else:
        assert isinstance(observer, DegreeObserver)
        synopsis = copy.deepcopy(observer.sketch)

        def apply(op):
            synopsis.update(observer.domain.index_of(op.values[observer.axis]), op.weight)

    return synopsis, apply


def _assert_identical(left, right, where):
    if isinstance(left, dict):
        assert left.keys() == right.keys(), where
        for key in left:
            _assert_identical(left[key], right[key], f"{where}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), where
        for i, (a, b) in enumerate(zip(left, right)):
            _assert_identical(a, b, f"{where}[{i}]")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape, where
        assert left.tobytes() == right.tobytes(), where
    else:
        assert left == right, where


def _stream(engine, rng, length, deletes):
    """Interleaved ops on both relations; deletes remove a tuple still held."""
    held = {name: [] for name in engine.relations}
    for _ in range(length):
        name = "R1" if rng.random() < 0.6 else "R2"
        if deletes and held[name] and rng.random() < 0.35:
            row = held[name].pop(int(rng.integers(len(held[name]))))
            yield name, StreamOp(row, OpKind.DELETE)
        else:
            domains = engine.relations[name].domains
            row = tuple(rng.choice(_values(d)).item() for d in domains)
            held[name].append(row)
            yield name, StreamOp(row, OpKind.INSERT)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["offset", "categorical"]),
    arity=st.sampled_from([1, 2]),
    sample=st.booleans(),
    seed=st.integers(0, 2**16),
    length=st.integers(1, 40),
)
def test_per_op_state_equals_per_tuple_methods(kind, arity, sample, seed, length):
    rng = np.random.default_rng(seed)
    methods = ("sample",) if sample else LINEAR_METHODS
    engine, query = _engine(kind, arity, methods, rng)
    unified = _unified(engine, query)
    twins = {}
    for state in engine._queries.values():
        for relation, observer in state.attachments:
            if id(observer) not in twins:
                twin = _per_tuple_twin(observer, unified[relation.name])
                twins[id(observer)] = (relation.name, observer, twin)
    # one synopsis class per method (the two sketch methods share one AGMS
    # observer) and the degree observers of bounds=True
    kinds = {
        type(observer.synopsis if isinstance(observer, engine_module._AxisObserver) else observer)
        for _, observer, _ in twins.values()
    }
    assert len(kinds) == (2 if sample else len(methods))
    for name, op in _stream(engine, rng, length, deletes=not sample):
        engine.process(name, op)
        for relation_name, _, (_, apply) in twins.values():
            if relation_name == name:
                apply(op)
    for relation_name, observer, (synopsis, _) in twins.values():
        where = f"{relation_name}:{type(observer).__name__}"
        _assert_identical(observer.state_dict(), synopsis.state_dict(), where)
