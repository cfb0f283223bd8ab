"""REP005: StreamObserver subclasses must honour the observer protocol.

:class:`repro.streams.relation.StreamObserver` is the seam every
estimator hangs off: ``on_op`` is the mandatory per-operation hook (the
base raises ``NotImplementedError``), ``on_ops`` is the optional batched
fast path whose base implementation replays per-op, and
``answer()`` / ``estimate()`` / ``state_dict()`` are read paths the
engine may call at any point between batches — including concurrently
with checkpointing.  Two drift modes this rule pins down statically:

* a subclass that defines ``on_ops`` while no class in its MRO below
  ``StreamObserver`` defines ``on_op`` — the batched path works until a
  per-op caller (``StreamRelation.process``, behind ``engine.insert`` /
  ``delete`` / ``process``) hits the base's ``NotImplementedError``;
* mutation inside the read-only methods — an ``answer()`` that updates
  ``self`` state turns checkpoint/restore and shard-merge into
  order-dependent heisenbugs.

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

#: Base classes whose subclasses must honour the observer protocol.
BASE_CLASSES = ("StreamObserver",)
#: Methods that must never mutate observer/engine state.
READ_ONLY_METHODS = ("answer", "estimate", "state_dict")


class ObserverProtocolRule(Rule):
    code = "REP005"
    name = "observer-protocol"
    description = (
        "StreamObserver subclasses must implement on_op when they define "
        "on_ops, and must not mutate self inside answer()/estimate()/"
        "state_dict()"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        graph = ProjectGraph.for_tree(tree)
        findings: list[Finding] = []
        for cls in graph.subclasses_of(BASE_CLASSES):
            findings.extend(self._check_class(graph, cls))
        return findings

    def _check_class(self, graph: ProjectGraph, cls: ClassInfo) -> Iterator[Finding]:
        on_op = graph.method_owner(cls, "on_op")
        if "on_ops" in cls.methods and (on_op is None or on_op.name in BASE_CLASSES):
            yield self.finding(
                cls.source,
                cls.methods["on_ops"].node,
                f"{cls.name} defines the batched on_ops fast path but not "
                "on_op; per-op delivery (StreamRelation.process, behind "
                "engine.insert/delete/process) would hit "
                "StreamObserver.on_op's NotImplementedError",
            )
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
