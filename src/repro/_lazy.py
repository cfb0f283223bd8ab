"""Package exports imported on first use (PEP 562)."""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(package: str, sources: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` that imports each name of ``sources`` when first read.

    ``sources`` maps an exported name to the module that defines it,
    relative to ``package``.  A package assigns the result to its
    ``__getattr__`` and repeats the imports under ``TYPE_CHECKING``, so
    type checkers and readers see the real objects while a process that
    never reads the name never loads its module.
    """

    def __getattr__(name: str) -> Any:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(source, package), name)

    return __getattr__
