"""Hardware-limited kernels for coefficient maintenance.

``repro.fastpath`` is the blessed home for hot-loop arithmetic: the
Chebyshev-recurrence cosine basis (one transcendental call per batch
instead of one per table entry) and its blocked projection form, the
numpy-FFT cosine transforms that replace both on the midpoint grid of a
one-attribute synopsis (:func:`phi_block` with ``midpoint=``, and
:func:`phi_expand`), plus the ``set_backend("reference")`` switch that
runs the per-entry seed kernel instead, for parity tests and the
benchmark's in-run baseline.  The synopsis, sketch, and stream layers call
:func:`phi_block` and :func:`phi_expand` and stay free of per-order python
loops themselves — the ``repro.analysis`` REP006 rule enforces that split.

See ``docs/PERFORMANCE.md`` for the recurrence and transform math, the
crossover between them, the reference switch, and how the CI benchmark
gate holds this layer to its floors.
"""

from .backend import backend_name, phi_block, phi_expand, set_backend
from .recurrence import (
    PROJECT_COLS,
    PROJECT_ROWS,
    RECURRENCE_MIN_COLS,
    SQRT2,
    phi_block_numpy,
    phi_block_reference,
)

__all__ = [
    "PROJECT_COLS",
    "PROJECT_ROWS",
    "RECURRENCE_MIN_COLS",
    "SQRT2",
    "backend_name",
    "phi_block",
    "phi_block_numpy",
    "phi_block_reference",
    "phi_expand",
    "set_backend",
]
