"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Any, ClassVar, Mapping

from ..core import Finding, RelatedLocation, SourceFile, SourceTree

__all__ = [
    "Rule",
    "attr_chain",
    "call_name",
    "is_self_attribute",
    "path_in",
    "string_tuple",
]


class Rule:
    """One checkable invariant: a code, a name, and a tree-wide check."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        raise NotImplementedError

    def options(self, config: Mapping[str, Any]) -> Mapping[str, Any]:
        """This rule's option table from the merged configuration."""
        section = config.get(self.name, {})
        return section if isinstance(section, Mapping) else {}

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        related: tuple[RelatedLocation, ...] = (),
    ) -> Finding:
        return source.finding(self.code, self.name, node, message, related)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.code})"


def attr_chain(node: ast.AST) -> str:
    """Dotted name of an attribute chain (``np.random.default_rng``), or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target, or ``""`` when not a plain name chain."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return attr_chain(node.func)


def is_self_attribute(node: ast.AST) -> bool:
    """Whether ``node`` is a ``self.<attr>`` access."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def path_in(rel_path: str, prefixes: "tuple[str, ...]") -> bool:
    """Whether ``rel_path`` falls under any prefix (empty prefixes = everywhere)."""
    if not prefixes:
        return True
    return any(
        rel_path == prefix or rel_path.startswith(prefix.rstrip("/") + "/")
        for prefix in prefixes
    )


def string_tuple(node: ast.AST) -> tuple[tuple[str, ...], bool] | None:
    """Resolve a literal label tuple/list to its strings.

    Returns ``(labels, has_star)`` where ``has_star`` records a trailing
    ``*rest`` element (the optional-shard-suffix idiom), or ``None`` when
    the expression is not statically resolvable.
    """
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    labels: list[str] = []
    has_star = False
    for element in node.elts:
        if isinstance(element, ast.Starred):
            has_star = True
            continue
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            labels.append(element.value)
        else:
            return None
    return tuple(labels), has_star
