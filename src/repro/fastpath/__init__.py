"""Hardware-limited kernels for coefficient maintenance.

``repro.fastpath`` is the blessed home for hot-loop arithmetic: the
Chebyshev-recurrence cosine basis (one transcendental call per batch
instead of one per table entry) and its blocked projection form, the
optional numba-compiled kernel, and the backend switch that picks between
them at import time.  The synopsis, sketch, and stream layers call
:func:`phi_block` and stay free of per-order python loops themselves —
the ``repro.analysis`` REP006 rule enforces that split.

See ``docs/PERFORMANCE.md`` for the recurrence math, backend selection
rules, and how the CI benchmark gate holds this layer to its >= 5x floor.
"""

from .backend import (
    BACKENDS,
    available_backends,
    backend_name,
    describe,
    phi_block,
    register_backend_gauge,
    set_backend,
)
from .recurrence import (
    PROJECT_COLS,
    PROJECT_ROWS,
    RECURRENCE_MIN_COLS,
    SQRT2,
    phi_block_numpy,
    phi_block_reference,
)

__all__ = [
    "BACKENDS",
    "PROJECT_COLS",
    "PROJECT_ROWS",
    "RECURRENCE_MIN_COLS",
    "SQRT2",
    "available_backends",
    "backend_name",
    "describe",
    "phi_block",
    "phi_block_numpy",
    "phi_block_reference",
    "register_backend_gauge",
    "set_backend",
]
