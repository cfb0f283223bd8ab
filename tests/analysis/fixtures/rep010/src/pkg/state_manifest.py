"""Checkpoint state-shape manifest.

Generated by ``python -m repro.analysis --update-state-manifest`` — do not edit by hand.

Maps ``<file>::<Class>`` to the sorted attributes its
``state_dict`` serializes.  REP002 (checkpoint-coverage) fails
when a class's shape drifts from this record, and regeneration
refuses to proceed until ``FORMAT_VERSION`` in ``checkpoint.py``
is bumped.
"""


FORMAT_VERSION = 1

STATE_MANIFEST = {
    'src/pkg/base.py::Synopsis': [
        'weights',
    ],
}
