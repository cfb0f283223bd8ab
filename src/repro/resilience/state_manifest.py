"""Checkpoint state-shape manifest.

Generated by ``python -m repro.analysis --update-state-manifest`` — do not edit by hand.

Maps ``<file>::<Class>`` to the sorted attributes its
``state_dict`` serializes.  REP002 (checkpoint-coverage) fails
when a class's shape drifts from this record, and regeneration
refuses to proceed until ``FORMAT_VERSION`` in ``checkpoint.py``
is bumped.
"""


FORMAT_VERSION = 4

STATE_MANIFEST = {
    'src/repro/bounds/degree.py::DegreeObserver': [
        'sketch',
    ],
    'src/repro/bounds/degree.py::DegreeSketch': [
        'freq',
    ],
    'src/repro/core/synopsis.py::CosineSynopsis': [
        '_count',
        '_sums',
    ],
    'src/repro/histograms/equiwidth.py::EquiWidthHistogram': [
        '_count',
        'counts',
    ],
    'src/repro/sampling/reservoir.py::BernoulliSample': [
        '_rng',
        'cells',
        'counts',
        'probability',
        'sampled_size',
        'stream_size',
    ],
    'src/repro/sketches/basic.py::AGMSSketch': [
        '_count',
        'atoms',
    ],
    'src/repro/sketches/partitioned.py::PartitionedSketch': [
        '_s1',
        '_s2',
        'boundaries',
        'seed',
        'sketches',
    ],
    'src/repro/streams/engine.py::_AxisObserver': [
        'synopsis',
    ],
    'src/repro/streams/engine.py::_CosineObserver': [
        'synopsis',
    ],
    'src/repro/streams/engine.py::_SampleObserver': [
        'sample',
    ],
    'src/repro/streams/engine.py::_SketchObserver': [
        'sketch',
    ],
    'src/repro/wavelets/haar.py::HaarSynopsis': [
        '_details',
    ],
}
