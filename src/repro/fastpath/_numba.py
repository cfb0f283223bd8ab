"""Optional numba-compiled kernels behind a gated import.

numba is *not* a dependency of this package: when it is importable the
kernel below is JIT-compiled and :mod:`repro.fastpath.backend` selects
the ``"numba"`` backend by default; when it is absent (the normal case —
the CI image deliberately ships without it) everything here degrades to
``None`` and the pure-numpy recurrence takes over at import time.  Which
way the coin fell is visible through the ``repro_fastpath_backend`` gauge
and ``repro.fastpath.describe()``.

The kernel mirrors the numpy fast path exactly (same recurrence), so the
parity guarantees proven for the numpy path in ``tests/fastpath/``
transfer; it mainly buys back the python-level loop over basis orders.
"""

from __future__ import annotations

from typing import Any

import math

from numpy.typing import NDArray

__all__ = ["HAVE_NUMBA", "phi_block_kernel"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # type: ignore[import-not-found]
except Exception:  # pragma: no cover - import error path is environment-dependent
    numba = None

HAVE_NUMBA = numba is not None

_SQRT2 = math.sqrt(2.0)


if HAVE_NUMBA:  # pragma: no cover - numba absent in the pinned CI image

    @numba.njit(cache=True)
    def phi_block_kernel(order: int, positions: NDArray[Any], out: NDArray[Any]) -> None:
        """Chebyshev-recurrence basis table, one cos() per batch column."""
        cols = positions.shape[0]
        for b in range(cols):
            out[0, b] = 1.0
        if order > 1:
            for b in range(cols):
                out[1, b] = _SQRT2 * math.cos(math.pi * positions[b])
        if order > 2:
            for b in range(cols):
                t2 = 2.0 * math.cos(math.pi * positions[b])
                prev2 = _SQRT2
                prev1 = out[1, b]
                for k in range(2, order):
                    cur = t2 * prev1 - prev2
                    out[k, b] = cur
                    prev2 = prev1
                    prev1 = cur

else:
    phi_block_kernel = None
