"""REP005: StreamObserver read paths must not mutate the observer.

:class:`repro.streams.relation.StreamObserver` is the seam every
estimator hangs off.  Its ``answer()`` / ``estimate()`` / ``state_dict()``
are read paths the engine may call at any point between batches —
including concurrently with checkpointing — so an ``answer()`` that
updates ``self`` state turns checkpoint/restore and shard-merge into
order-dependent heisenbugs.  This rule flags every store into ``self``
inside those methods.

Every subclass is covered, however indirect: classes come from the
:class:`~repro.analysis.graph.ProjectGraph` subclass closure over the
project MRO, not from the bases named in one file.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Mapping

from ..core import Finding, SourceTree
from ..graph import ClassInfo, ProjectGraph
from .base import Rule, is_self_attribute

__all__ = ["ObserverProtocolRule"]

#: Base classes whose subclasses' read paths are checked.
BASE_CLASSES = ("StreamObserver",)
#: Methods that must never mutate observer/engine state.
READ_ONLY_METHODS = ("answer", "estimate", "state_dict")


class ObserverProtocolRule(Rule):
    code = "REP005"
    name = "observer-protocol"
    description = (
        "StreamObserver subclasses must not mutate self inside answer()/"
        "estimate()/state_dict()"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        graph = ProjectGraph.for_tree(tree)
        findings: list[Finding] = []
        for cls in graph.subclasses_of(BASE_CLASSES):
            findings.extend(self._check_class(cls))
        return findings

    def _check_class(self, cls: ClassInfo) -> Iterator[Finding]:
        for name in READ_ONLY_METHODS:
            method = cls.methods.get(name)
            if method is None:
                continue
            for site in _mutations(method.node):
                yield self.finding(
                    cls.source,
                    site,
                    f"{cls.name}.{name}() mutates self; read paths must be "
                    "pure so checkpointing and shard-merge stay "
                    "order-independent",
                )


def _mutations(method: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Statements that store into ``self`` state inside ``method``."""
    # AugAssign targets carry Store ctx, so `self.x += 1` and
    # `self.buckets[i] += 1` are covered by the two branches below.
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, (ast.Store, ast.Del)) and is_self_attribute(node):
                yield node
        elif isinstance(node, ast.Subscript):
            # self.buckets[i] = ... / del self.buckets[i]
            if isinstance(node.ctx, (ast.Store, ast.Del)) and is_self_attribute(node.value):
                yield node
