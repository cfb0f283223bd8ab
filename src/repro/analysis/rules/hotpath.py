"""REP006: keep the per-tuple hot path allocation-free.

``StreamRelation.process()`` and every observer ``on_op`` run once per
tuple of the stream — millions of times per experiment.  The batched
``on_ops`` path exists precisely so per-op work stays cheap, and the
benchmarks in ``benchmarks/`` regress measurably when a copy or an
f-string sneaks into these bodies.  This rule flags allocation-heavy
idioms inside the hot functions (``on_op``, ``process``,
``_process_inner``) in the configured paths:

* ``list(...)`` / ``dict(...)`` / ``set(...)`` / ``tuple(...)`` /
  ``sorted(...)`` / ``copy.deepcopy(...)`` copies,
* list/set/dict comprehensions and displays,
* f-strings and ``str.format`` calls.

The rule also guards the *kernel seam*: batch coefficient maintenance
must build its basis tables through ``repro.fastpath`` (the Chebyshev
recurrence / compiled kernels), not by per-entry trig evaluation.  Files
under the configured ``kernel-paths`` may not call ``basis_matrix``,
``np.cos``, ``numpy.cos`` or ``phi`` directly — the
blessed implementations live under ``kernel-seam`` (``src/repro/fastpath``
by default), which is exempt because it *is* the seam, as are the
reference modules the seam is checked against.

Error paths are exempt: anything inside a ``raise`` statement (f-string
exception messages are fine — they only allocate when things already
went wrong).  A justified allocation takes an inline
``# repro: noqa[REP006]``.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Mapping

from ..core import Finding, SourceFile, SourceTree
from .base import Rule, call_name, path_in

__all__ = ["HotPathPurityRule"]

_COPY_CALLS = {
    "list",
    "dict",
    "set",
    "tuple",
    "sorted",
    "deepcopy",
    "copy.copy",
    "copy.deepcopy",
}

#: Per-tuple hot-path methods: allocation-heavy idioms inside are flagged.
_HOT_FUNCTIONS = ("on_op", "process", "_process_inner")

#: Calls that reintroduce per-entry basis evaluation outside the fastpath
#: seam.
_KERNEL_CALLS = {"basis_matrix", "np.cos", "numpy.cos", "phi"}

#: Default home of the blessed kernel implementations, exempt from the
#: seam check (overridable via the ``kernel-seam`` option).
_KERNEL_SEAM = ("src/repro/fastpath",)


class HotPathPurityRule(Rule):
    code = "REP006"
    name = "hot-path"
    description = (
        "no allocation-heavy idioms (copies, comprehensions, f-strings) "
        "inside per-tuple process()/on_op bodies outside error paths, and "
        "no per-entry basis evaluation outside the repro.fastpath seam"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        options = self.options(config)
        paths = tuple(str(p) for p in options.get("paths", ()))
        kernel_paths = tuple(str(p) for p in options.get("kernel-paths", ()))
        kernel_seam = tuple(str(p) for p in options.get("kernel-seam", _KERNEL_SEAM))
        findings: list[Finding] = []
        for source in tree:
            if path_in(source.rel_path, paths):
                for node in ast.walk(source.tree):
                    if isinstance(node, ast.FunctionDef) and node.name in _HOT_FUNCTIONS:
                        findings.extend(self._check_function(source, node))
            if path_in(source.rel_path, kernel_paths) and not path_in(
                source.rel_path, kernel_seam
            ):
                findings.extend(self._check_kernel_seam(source))
        return findings

    def _check_kernel_seam(self, source: SourceFile) -> Iterator[Finding]:
        """Flag direct basis evaluation that bypasses ``repro.fastpath``."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _KERNEL_CALLS:
                yield self.finding(
                    source,
                    node,
                    f"direct basis evaluation {name}(...) bypasses the "
                    "repro.fastpath seam; build basis tables with "
                    "repro.fastpath.phi_block so the recurrence/compiled "
                    "kernels stay the only implementation",
                )

    def _check_function(
        self, source: SourceFile, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        label = f"per-tuple {func.name}()"
        for stmt in func.body:
            yield from self._visit(source, stmt, label)

    def _visit(self, source: SourceFile, node: ast.AST, label: str) -> Iterator[Finding]:
        if isinstance(node, ast.Raise):
            return  # error path: allocation only happens when already failing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are not executed per tuple
        message: str | None = None
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in _COPY_CALLS:
                message = f"{name}(...) copies per tuple in {label}"
            elif name.endswith(".format"):
                message = f"str.format allocates per tuple in {label}"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            message = f"comprehension allocates per tuple in {label}"
        elif isinstance(node, ast.JoinedStr):
            message = f"f-string allocates per tuple in {label}"
        if message is not None:
            yield self.finding(
                source,
                node,
                message
                + "; hoist it out of the hot path, use the batched on_ops "
                "path, or justify with # repro: noqa[REP006]",
            )
            return  # do not double-report sub-expressions of a flagged node
        for child in ast.iter_child_nodes(node):
            yield from self._visit(source, child, label)
