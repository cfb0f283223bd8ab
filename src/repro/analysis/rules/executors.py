"""REP007: ShardExecutor subclasses must honour the executor protocol.

:class:`repro.sharding.executor.ShardExecutor` is the placement seam the
sharded engine — and the supervised worker fleet — depends on: four
implementations must stay drop-in interchangeable for the executor
matrix tests to mean anything.  Three drift modes pinned down
statically:

* a subclass missing one of the required methods (``start`` / ``call``
  / ``scatter``) silently inherits the base's ``NotImplementedError``
  and only fails at runtime, on whichever code path first exercises it;
* an override whose parameters drift from the protocol (renamed or
  reordered arguments, a dropped ``**kwargs``) breaks keyword call
  sites for exactly one executor — the matrix passes wherever the
  positional form happens to be used;
* executor dispatch (``.call`` / ``.scatter`` / ``.broadcast`` on an
  executor-named receiver) outside :mod:`repro.sharding` /
  :mod:`repro.fleet` — bare dispatch bypasses the engine layer that
  owns journaling, partitioning, and degradation policy, so crash
  recovery guarantees quietly stop applying.

Every subclass is covered, however indirect: classes come from the
:class:`~repro.analysis.graph.ProjectGraph` subclass closure, and a
required method counts as implemented when any project class in the MRO
below ``ShardExecutor`` defines it.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Mapping, Sequence

from ..core import Finding, SourceFile, SourceTree
from ..graph import ClassInfo, ProjectGraph
from .base import Rule, attr_chain, path_in

__all__ = ["ExecutorProtocolRule"]

#: Base classes whose subclasses must honour the executor protocol.
BASE_CLASSES = ("ShardExecutor",)
#: Methods every executor must implement (the base raises
#: NotImplementedError; broadcast/close have usable defaults).
REQUIRED_METHODS = ("start", "call", "scatter")
#: Protocol parameter names (after self) an override must keep, so
#: keyword call sites stay valid for every executor.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "start": ("num_shards", "seed", "telemetry"),
    "call": ("shard", "method", "*args", "**kwargs"),
    "broadcast": ("method", "*args", "**kwargs"),
    "scatter": ("method", "per_shard"),
    "close": (),
}
#: Executor dispatch (.call/.scatter/.broadcast on an executor receiver)
#: is only legitimate inside these layers; elsewhere it bypasses
#: journaling, partitioning, and degradation policy.
ALLOWED_PATHS = ("src/repro/sharding", "src/repro/fleet")
DISPATCH_METHODS = ("call", "scatter", "broadcast")


def _signature_tokens(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """A method's parameter names after ``self``, with vararg markers."""
    args = func.args
    tokens: list[str] = [a.arg for a in args.posonlyargs + args.args]
    if tokens and tokens[0] == "self":
        tokens = tokens[1:]
    if args.vararg is not None:
        tokens.append(f"*{args.vararg.arg}")
    for kwonly in args.kwonlyargs:
        tokens.append(kwonly.arg)
    if args.kwarg is not None:
        tokens.append(f"**{args.kwarg.arg}")
    return tuple(tokens)


def _normalize(tokens: Sequence[str]) -> tuple[str, ...]:
    """Compare vararg/kwarg by presence, named parameters by name."""
    out: list[str] = []
    for token in tokens:
        if token.startswith("**"):
            out.append("**")
        elif token.startswith("*"):
            out.append("*")
        else:
            out.append(token)
    return tuple(out)


class ExecutorProtocolRule(Rule):
    code = "REP007"
    name = "executor-protocol"
    description = (
        "ShardExecutor subclasses must implement start/call/scatter with "
        "protocol-matching signatures; executor dispatch stays inside "
        "repro.sharding / repro.fleet"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        graph = ProjectGraph.for_tree(tree)
        findings: list[Finding] = []
        for cls in graph.subclasses_of(BASE_CLASSES):
            findings.extend(self._check_class(graph, cls))
        for source in tree:
            if not path_in(source.rel_path, ALLOWED_PATHS):
                findings.extend(self._check_dispatch(source))
        return findings

    def _check_class(self, graph: ProjectGraph, cls: ClassInfo) -> Iterator[Finding]:
        for name in REQUIRED_METHODS:
            owner = graph.method_owner(cls, name)
            if owner is None or owner.name in BASE_CLASSES:
                yield self.finding(
                    cls.source,
                    cls.node,
                    f"{cls.name} subclasses ShardExecutor but does not "
                    f"implement {name}(); the base raises "
                    "NotImplementedError at first use",
                )
        for name, expected in SIGNATURES.items():
            method = cls.methods.get(name)
            if method is None:
                continue  # inheriting an implementation is conforming
            got = _signature_tokens(method.node)
            if _normalize(got) != _normalize(expected):
                yield self.finding(
                    cls.source,
                    method.node,
                    f"{cls.name}.{name}({', '.join(got)}) drifts from the "
                    f"executor protocol signature ({', '.join(expected)}); "
                    "keyword call sites break for this executor only",
                )

    def _check_dispatch(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in DISPATCH_METHODS:
                continue
            receiver = attr_chain(func.value)
            if "executor" in receiver.lower():
                yield self.finding(
                    source,
                    node,
                    f"bare executor dispatch {receiver}.{func.attr}(...) "
                    "outside repro.sharding/repro.fleet bypasses journaling "
                    "and degradation policy; go through the engine surface",
                )
