"""REP011: no blocking calls inside ``async def`` bodies.

The serve daemon multiplexes every client on one event loop; a single
``time.sleep``, synchronous socket/file read, or ``subprocess`` call in
an ``async def`` body stalls *all* sessions for its duration — the
latency SLO dies quietly, with nothing crashing.  This rule walks every
coroutine in the configured paths and flags:

* calls whose resolved dotted name is a known blocking primitive
  (``time.sleep``, the ``subprocess`` family, ``socket.create_connection``,
  ``urllib.request.urlopen``, ``os.system``) — use ``await
  asyncio.sleep`` / ``run_in_executor`` / an async client instead;
* the builtin ``open()`` and the ``Path`` IO quartet
  (``read_text``/``write_text``/``read_bytes``/``write_bytes``);
* ``.shutdown(...)`` on an attribute initialized as a
  ``ThreadPoolExecutor`` unless called with ``wait=False`` — the default
  waits for queue drain while the loop can do nothing else;
* calls into *project* sync functions whose bodies directly contain one
  of the blocking primitives (one level deep through the
  :class:`~repro.analysis.graph.ProjectGraph`), with the blocking site
  attached as a related location.

Nested sync ``def``/``lambda`` bodies inside a coroutine are skipped:
they run wherever they are dispatched (usually an executor), not on the
loop.
"""

from __future__ import annotations

import ast
from typing import Any, Mapping

from ..core import Finding, RelatedLocation, SourceTree
from ..graph import FunctionInfo, ProjectGraph, constructor_call, walk_own
from .base import Rule, attr_chain, call_name, path_in

__all__ = ["AsyncSafetyRule"]

_BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "os.system",
}
_PATH_IO = {"read_text", "write_text", "read_bytes", "write_bytes"}


class AsyncSafetyRule(Rule):
    code = "REP011"
    name = "async-safety"
    description = (
        "async def bodies must not call blocking primitives (time.sleep, "
        "sync IO, subprocess, waiting pool shutdown); the event loop "
        "serves every client"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        paths = tuple(str(p) for p in self.options(config).get("paths", ()))
        graph = ProjectGraph.for_tree(tree)
        findings: list[Finding] = []
        for fn in graph.functions.values():
            if not fn.is_async or not path_in(fn.source.rel_path, paths):
                continue
            for node in walk_own(fn.node, include_nested=False):
                if not isinstance(node, ast.Call):
                    continue
                finding = self._check_call(graph, fn, node)
                if finding is not None:
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col))
        return findings

    def _check_call(
        self,
        graph: ProjectGraph,
        fn: FunctionInfo,
        node: ast.Call,
    ) -> Finding | None:
        resolved = graph.resolve_call(fn, node) or call_name(node)
        if resolved in _BLOCKING_CALLS:
            return self.finding(
                fn.source,
                node,
                f"blocking call {resolved}() inside async def {fn.name}; "
                "use the asyncio equivalent or run_in_executor",
            )
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            if graph.resolve(fn.module, "open") is None:  # the builtin
                return self.finding(
                    fn.source,
                    node,
                    f"blocking file open() inside async def {fn.name}; "
                    "do the IO in an executor",
                )
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _PATH_IO:
                return self.finding(
                    fn.source,
                    node,
                    f"blocking .{node.func.attr}() inside async def "
                    f"{fn.name}; do the IO in an executor",
                )
            if node.func.attr == "shutdown" and self._waits_on_pool(graph, fn, node):
                return self.finding(
                    fn.source,
                    node,
                    f"pool .shutdown() waits for queue drain inside async "
                    f"def {fn.name}; call it via run_in_executor or pass "
                    "wait=False",
                )
        # One level into project sync helpers: an async handler calling a
        # sync wrapper around time.sleep is just as stalled.
        callee = graph.function(resolved) if resolved else None
        if callee is not None and not callee.is_async:
            site = self._direct_blocking_site(graph, callee)
            if site is not None:
                return self.finding(
                    fn.source,
                    node,
                    f"async def {fn.name} calls {callee.name}(), which blocks "
                    f"({site[1]}); await an async variant or dispatch it to "
                    "an executor",
                    related=(
                        RelatedLocation(
                            callee.source.rel_path,
                            int(getattr(site[0], "lineno", 1)),
                            f"blocking {site[1]} call inside {callee.qualname}",
                        ),
                    ),
                )
        return None

    def _waits_on_pool(
        self, graph: ProjectGraph, fn: FunctionInfo, node: ast.Call
    ) -> bool:
        assert isinstance(node.func, ast.Attribute)
        receiver = attr_chain(node.func.value)
        if not receiver.startswith("self.") or receiver.count(".") != 1 or fn.cls is None:
            return False
        attr = receiver.split(".", 1)[1]
        for owner in graph.mro(fn.cls):
            value = owner.attr_values.get(attr)
            if value is None:
                continue
            call = constructor_call(value)
            if call is None:
                return False
            name = call_name(call)
            if name.rsplit(".", 1)[-1] != "ThreadPoolExecutor":
                return False
            for keyword in node.keywords:
                if keyword.arg == "wait":
                    return not (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                    )
            return True  # shutdown() defaults to wait=True
        return False

    @staticmethod
    def _direct_blocking_site(
        graph: ProjectGraph, callee: FunctionInfo
    ) -> tuple[ast.Call, str] | None:
        for node in walk_own(callee.node, include_nested=False):
            if not isinstance(node, ast.Call):
                continue
            resolved = graph.resolve_call(callee, node) or call_name(node)
            if resolved in _BLOCKING_CALLS:
                return node, resolved
        return None
