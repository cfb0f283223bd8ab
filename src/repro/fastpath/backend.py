"""Backend selection for the fast-path kernels.

Exactly one backend is active per process:

``"numba"``
    The compiled kernel from :mod:`repro.fastpath._numba`.  Selected at
    import time when numba is importable; never a hard dependency.
``"numpy"``
    The vectorized recurrence from :mod:`repro.fastpath.recurrence` — the
    fallback (and the path every CI run exercises).
``"reference"``
    The 1.5.0 per-entry evaluation, bit-identical to
    ``repro.core.basis.basis_matrix``.  Kept selectable so benchmarks and
    parity tests can A/B the fast path against the exact seed behavior
    in the same process (``benchmarks/bench_fastpath.py`` measures its
    speedup floor this way).

The ``REPRO_FASTPATH`` environment variable overrides the automatic
choice (``auto`` / empty keeps it); requesting ``numba`` without numba
installed falls back to ``numpy`` rather than failing, because ingest
must not break on a missing optional dependency.

Which backend won is observable: :func:`register_backend_gauge` registers
the ``repro_fastpath_backend`` gauge (one time series per backend label,
1 on the active one) into any telemetry registry, and every registered
family is kept in sync when tests flip backends via :func:`set_backend`.

This module deliberately imports nothing from ``repro.core`` or
``repro.obs`` — it sits below both, so the synopsis and telemetry layers
can depend on it without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import os

import numpy as np
from numpy.typing import NDArray

from . import _numba
from .recurrence import _prepare_weights, phi_block_numpy, phi_block_reference, phi_project_numpy

if TYPE_CHECKING:
    from ..obs.metrics import MetricFamily, MetricsRegistry

__all__ = [
    "BACKENDS",
    "available_backends",
    "backend_name",
    "set_backend",
    "phi_block",
    "register_backend_gauge",
    "describe",
]

#: Every backend name this module understands, preference order first.
BACKENDS: tuple[str, ...] = ("numba", "numpy", "reference")

#: Gauge families registered via :func:`register_backend_gauge`, kept in
#: sync whenever the active backend changes.
_GAUGE_FAMILIES: list[Any] = []


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run in this process."""
    return tuple(b for b in BACKENDS if b != "numba" or _numba.HAVE_NUMBA)


def _initial_backend() -> str:
    """Import-time choice: env override first, then numba-if-present."""
    automatic = "numba" if _numba.HAVE_NUMBA else "numpy"
    requested = os.environ.get("REPRO_FASTPATH", "").strip().lower()
    if requested in ("", "auto"):
        return automatic
    if requested == "numba" and not _numba.HAVE_NUMBA:
        return "numpy"
    if requested in BACKENDS:
        return requested
    raise ValueError(
        f"REPRO_FASTPATH={requested!r} is not a known backend; "
        f"choose one of {', '.join(BACKENDS)} or 'auto'"
    )


_backend: str = _initial_backend()


def backend_name() -> str:
    """Name of the active backend (``numba`` / ``numpy`` / ``reference``)."""
    return _backend


def set_backend(name: str) -> str:
    """Activate a backend by name; returns the previously active one.

    Requesting ``"numba"`` when numba is not importable raises, unlike the
    import-time selection which silently falls back — an explicit request
    failing silently would invalidate whatever comparison the caller is
    setting up.
    """
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose one of {', '.join(BACKENDS)}")
    if name == "numba" and not _numba.HAVE_NUMBA:
        raise RuntimeError("the numba backend was requested but numba is not importable")
    previous = _backend
    _backend = name
    for family in _GAUGE_FAMILIES:
        _sync_gauge(family)
    return previous


def _phi_block_numba(
    order: int, positions: NDArray[Any], out: NDArray[Any] | None
) -> NDArray[Any]:  # pragma: no cover - requires numba
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if out is None:
        out = np.empty((order, positions.shape[0]), dtype=np.float64)
    _numba.phi_block_kernel(order, positions, out)
    return out


def phi_block(
    order: int,
    positions: NDArray[Any],
    out: NDArray[Any] | None = None,
    *,
    weights: NDArray[Any] | None = None,
) -> NDArray[Any]:
    """Basis table ``P[k, b] = phi_k(positions[b])`` on the active backend.

    The drop-in fast replacement for
    ``basis_matrix(np.arange(order), positions)`` — every coefficient
    maintenance path routes through here.

    With ``weights`` of shape ``(B,)`` or ``(B, R)`` it returns the
    projection ``P @ weights`` instead, of shape ``(order,)`` or
    ``(order, R)``.  The numpy backend computes it block by block without
    the table (:func:`repro.fastpath.recurrence.phi_project_numpy`); the
    ``reference`` and numba backends contract their own tables.  ``out``
    is the table's buffer and does not apply to the projection.
    """
    if weights is not None:
        if out is not None:
            raise ValueError("out= is the table's buffer; the projection form takes none")
        if _backend == "numpy":
            return phi_project_numpy(order, positions, weights)
        weights = _prepare_weights(positions, weights)
        return phi_block(order, positions) @ weights
    if _backend == "numpy":
        return phi_block_numpy(order, positions, out)
    if _backend == "reference":
        return phi_block_reference(order, positions, out)
    return _phi_block_numba(order, positions, out)  # pragma: no cover - requires numba


def _sync_gauge(family: MetricFamily) -> None:
    """Point one registered gauge family at the active backend."""
    for name in BACKENDS:
        family.labels(name).set(1.0 if name == _backend else 0.0)


def register_backend_gauge(registry: MetricsRegistry) -> None:
    """Expose the active backend through a telemetry registry.

    Registers the ``repro_fastpath_backend`` gauge family (one child per
    backend label, value 1 on the active one — the Prometheus idiom for
    an enum-valued fact).  ``registry`` is any
    :class:`repro.obs.metrics.MetricsRegistry`; it is passed in rather
    than imported so this module stays below the obs layer.
    """
    family = registry.gauge(
        "repro_fastpath_backend",
        "Active repro.fastpath kernel backend (1 on the selected label).",
        labelnames=("backend",),
    )
    if family not in _GAUGE_FAMILIES:
        _GAUGE_FAMILIES.append(family)
    _sync_gauge(family)


def describe() -> dict[str, Any]:
    """Diagnostic summary of the backend state (JSON-compatible)."""
    return {
        "backend": _backend,
        "available": list(available_backends()),
        "numba_importable": _numba.HAVE_NUMBA,
        "env_override": os.environ.get("REPRO_FASTPATH", "") or None,
    }
