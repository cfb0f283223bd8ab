"""Package exports imported on first use (PEP 562)."""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` that imports each exported name when first read.

    ``exports`` maps a module, relative to ``package``, to the names it
    exports; ``"module:attribute"`` exports that one attribute under the
    name listed.  A package assigns the result to its ``__getattr__`` and
    repeats the imports under ``TYPE_CHECKING``, so type checkers and
    readers see the real objects while a process that never reads a name
    never loads its module.
    """
    sources = {name: source for source, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attribute = source.partition(":")
        return getattr(importlib.import_module(module, package), attribute or name)

    return __getattr__
