"""Equi-width histogram baseline (section 2 of the paper).

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .equiwidth import EquiWidthHistogram, estimate_join_size, estimate_self_join_size

_EXPORTS = {
    ".equiwidth": ("EquiWidthHistogram", "estimate_join_size", "estimate_self_join_size"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["EquiWidthHistogram", "estimate_join_size", "estimate_self_join_size"]
