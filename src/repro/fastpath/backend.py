"""The kernel behind :func:`phi_block`, and its one switch.

Every coefficient maintenance path runs the numpy recurrence from
:mod:`repro.fastpath.recurrence`.  :func:`set_backend` swaps in one other
kernel, ``"reference"``: the 1.5.0 per-entry evaluation, bit-identical to
``repro.core.basis.basis_matrix``.  It stays selectable so benchmarks and
parity tests can run the whole engine on it and A/B the recurrence
against the exact seed behavior in the same process
(``benchmarks/bench_fastpath.py`` measures its speedup floor this way).

This module deliberately imports nothing from ``repro.core`` or
``repro.obs`` — it sits below both, so the synopsis and telemetry layers
can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any

from numpy.typing import NDArray

from .recurrence import _prepare_weights, phi_block_numpy, phi_block_reference, phi_project_numpy

__all__ = ["backend_name", "phi_block", "set_backend"]

_backend = "numpy"


def backend_name() -> str:
    """Name of the active kernel (``numpy`` / ``reference``)."""
    return _backend


def set_backend(name: str) -> str:
    """Activate ``"numpy"`` or ``"reference"``; returns the previous name."""
    global _backend
    if name not in ("numpy", "reference"):
        raise ValueError(f"unknown backend {name!r}; choose 'numpy' or 'reference'")
    previous, _backend = _backend, name
    return previous


def phi_block(
    order: int,
    positions: NDArray[Any],
    out: NDArray[Any] | None = None,
    *,
    weights: NDArray[Any] | None = None,
) -> NDArray[Any]:
    """Basis table ``P[k, b] = phi_k(positions[b])`` on the active kernel.

    The drop-in fast replacement for
    ``basis_matrix(np.arange(order), positions)`` — every coefficient
    maintenance path routes through here.

    With ``weights`` of shape ``(B,)`` or ``(B, R)`` it returns the
    projection ``P @ weights`` instead, of shape ``(order,)`` or
    ``(order, R)``.  The numpy kernel computes it block by block without
    the table (:func:`repro.fastpath.recurrence.phi_project_numpy`); the
    ``reference`` kernel contracts its own table.  ``out`` is the table's
    buffer and does not apply to the projection.
    """
    if weights is not None:
        if out is not None:
            raise ValueError("out= is the table's buffer; the projection form takes none")
        if _backend == "numpy":
            return phi_project_numpy(order, positions, weights)
        weights = _prepare_weights(positions, weights)
        return phi_block_reference(order, positions) @ weights
    if _backend == "numpy":
        return phi_block_numpy(order, positions, out)
    return phi_block_reference(order, positions, out)
