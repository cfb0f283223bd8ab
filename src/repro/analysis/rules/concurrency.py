"""REP008: lock discipline on every concurrent call path.

The engines in this repository share mutable objects across threads in
three ways: ``threading.Thread`` daemons (supervisor heartbeats, the
metrics server, the OTel push loop), pool submissions
(``ThreadPoolExecutor.submit`` / ``loop.run_in_executor``), and the
telemetry hot paths (``Tracer`` / ``MetricsRegistry``) that every engine
thread calls.  Any ``self.<attr>`` store reachable from one of those
entry points must happen while a ``threading.Lock`` is held, or the
attribute must itself be a lock or a ``threading.local``.

The rule computes the transitive call closure from every discovered
concurrent entry point over the :class:`~repro.analysis.graph.ProjectGraph`,
propagating a *guarded* bit:

* ``with self._lock:`` (including a per-shard alias ``lock =
  self._locks[shard]``) guards the statements it encloses;
* a function that calls ``.acquire()`` on a known lock is treated as
  guarded throughout (the try/finally heartbeat idiom is not lexically
  nested);
* a function named ``*_locked`` asserts its callers hold a lock; calling
  one from an unguarded concurrent context is itself a violation;
* submissions to a single-lane pool (``ThreadPoolExecutor(max_workers=1)``)
  are serialized with each other, not concurrent, and are skipped — the
  shard executors and the serve daemon's apply lane rely on this
  confinement instead of locks.

Unresolvable callables produce no closure edge, so the rule
under-approximates: it misses dynamic dispatch but never floods on it.

Lock-order inversions are checked separately: lexical (and propagated)
``with``-lock nestings build a global acquired-before relation keyed by
``Class.attr``; a 2-cycle between the configured multi-lock modules is
reported with both acquisition sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core import Finding, RelatedLocation, SourceTree
from ..graph import (
    ClassInfo,
    FunctionInfo,
    ProjectGraph,
    constructor_call,
    walk_own,
)
from .base import Rule, attr_chain, call_name, path_in

__all__ = ["ConcurrencyDisciplineRule"]

_LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}
_THREAD_LOCAL_FACTORIES = {"threading.local"}
_POOL_FACTORIES = {
    "concurrent.futures.ThreadPoolExecutor",
    "ThreadPoolExecutor",
}
#: Entry points the graph cannot discover statically: the HTTP handler
#: class is instantiated by socketserver per request, on the
#: metrics-server thread.
THREAD_ROOTS = ("repro.obs.server._Handler",)
#: Telemetry objects every engine thread calls into concurrently; all
#: their methods count as concurrent entry points.
HOT_PATH_CLASSES = ("repro.obs.metrics.MetricsRegistry", "repro.obs.tracing.Tracer")


@dataclass(frozen=True)
class _Root:
    """One concurrent entry point: the function plus the spawning site."""

    fn: FunctionInfo
    site_path: str
    site_line: int
    why: str


@dataclass
class _Facts:
    """Per-function lexical lock facts, computed once and cached."""

    #: (store node, attribute name, lock keys held lexically at the store).
    mutations: list[tuple[ast.AST, str, tuple[str, ...]]] = field(default_factory=list)
    #: (call node, resolved target qualname, lock keys held at the call).
    calls: list[tuple[ast.Call, str, tuple[str, ...]]] = field(default_factory=list)
    #: (lock key, acquisition node, keys already held when acquiring).
    acquisitions: list[tuple[str, ast.AST, tuple[str, ...]]] = field(default_factory=list)
    #: ``.acquire()`` seen on a known lock: treat the whole body as guarded.
    coarse_guard: bool = False


class ConcurrencyDisciplineRule(Rule):
    code = "REP008"
    name = "concurrency-discipline"
    description = (
        "Class attributes mutated on thread/executor/hot-path call chains "
        "must be lock-guarded or thread-local; lock orders must not invert"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        order_modules = tuple(self.options(config).get("lock-order-modules", ()))
        analysis = _Analysis(ProjectGraph.for_tree(tree))
        roots = analysis.discover_roots()
        findings = analysis.check_mutations(self, roots)
        findings.extend(analysis.check_lock_order(self, order_modules))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
        return findings


class _Analysis:
    """Shared machinery: facts cache, root discovery, closures."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._facts: dict[str, _Facts] = {}
        self._lock_attrs: dict[str, dict[str, bool]] = {}

    # ------------------------------------------------------------------ #
    # lock-typed attributes
    # ------------------------------------------------------------------ #

    def class_lock_attrs(self, cls: ClassInfo) -> dict[str, bool]:
        """attr -> is_thread_local for lock/``threading.local`` attributes."""
        cached = self._lock_attrs.get(cls.qualname)
        if cached is not None:
            return cached
        out: dict[str, bool] = {}
        for owner in self.graph.mro(cls):
            for attr, value in owner.attr_values.items():
                if attr in out:
                    continue
                call = constructor_call(value)
                if call is None:
                    continue
                target = self._resolve_factory(owner, call)
                if target in _LOCK_FACTORIES:
                    out[attr] = False
                elif target in _THREAD_LOCAL_FACTORIES:
                    out[attr] = True
        self._lock_attrs[cls.qualname] = out
        return out

    def _resolve_factory(self, owner: ClassInfo, call: ast.Call) -> str:
        name = call_name(call)
        if not name:
            return ""
        return self.graph.resolve(owner.module, name) or name

    def _pool_is_single_lane(self, fn: FunctionInfo, pool: ast.expr) -> bool | None:
        """``True``: serialized lane; ``False``: concurrent; ``None``: unknown."""
        attr: str | None = None
        target = pool
        if isinstance(target, ast.Subscript):
            target = target.value
        dotted = attr_chain(target)
        if dotted.startswith("self.") and dotted.count(".") == 1 and fn.cls is not None:
            attr = dotted.split(".", 1)[1]
        if attr is None or fn.cls is None:
            return None
        for owner in self.graph.mro(fn.cls):
            value = owner.attr_values.get(attr)
            if value is None:
                continue
            call = constructor_call(value)
            if call is None:
                return None
            factory = self._resolve_factory(owner, call)
            if factory.rsplit(".", 1)[-1] != "ThreadPoolExecutor":
                return None
            for keyword in call.keywords:
                if keyword.arg == "max_workers":
                    if (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value == 1
                    ):
                        return True
                    return False
            return False
        return None

    # ------------------------------------------------------------------ #
    # concurrent entry points
    # ------------------------------------------------------------------ #

    def discover_roots(self) -> list[_Root]:
        roots: dict[str, _Root] = {}

        def add(fn: FunctionInfo | None, site: ast.AST, source_path: str, why: str) -> None:
            if fn is not None and fn.qualname not in roots:
                line = int(getattr(site, "lineno", 1))
                roots[fn.qualname] = _Root(fn, source_path, line, why)

        for fn in self.graph.functions.values():
            for node in walk_own(fn.node, include_nested=False):
                if not isinstance(node, ast.Call):
                    continue
                target = self.graph.resolve_call(fn, node) or call_name(node)
                if target in ("threading.Thread", "Thread"):
                    for keyword in node.keywords:
                        if keyword.arg == "target":
                            add(
                                self._resolve_callable(fn, keyword.value),
                                node,
                                fn.source.rel_path,
                                f"thread started in {fn.qualname}",
                            )
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
                    if self._pool_is_single_lane(fn, node.func.value) is False and node.args:
                        add(
                            self._resolve_callable(fn, node.args[0]),
                            node,
                            fn.source.rel_path,
                            f"submitted to a multi-worker pool in {fn.qualname}",
                        )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "run_in_executor"
                    and len(node.args) >= 2
                ):
                    pool = node.args[0]
                    if isinstance(pool, ast.Constant) and pool.value is None:
                        lane: bool | None = False  # the default pool is shared
                    else:
                        lane = self._pool_is_single_lane(fn, pool)
                    if lane is False:
                        add(
                            self._resolve_callable(fn, node.args[1]),
                            node,
                            fn.source.rel_path,
                            f"dispatched to an executor in {fn.qualname}",
                        )

        for qualname in THREAD_ROOTS:
            self._add_class_roots(roots, qualname, "configured thread root")
        for qualname in HOT_PATH_CLASSES:
            self._add_class_roots(
                roots, qualname, "telemetry hot path (called from every engine thread)"
            )
        return list(roots.values())

    def _add_class_roots(self, roots: dict[str, _Root], qualname: str, why: str) -> None:
        """Every method of a project class is a concurrent entry point."""
        cls = self.graph.classes.get(qualname)
        if cls is None:
            return
        for method in cls.methods.values():
            if method.qualname not in roots:
                roots[method.qualname] = _Root(
                    method,
                    method.source.rel_path,
                    int(method.node.lineno),
                    f"{why}: {qualname}",
                )

    def _resolve_callable(
        self, fn: FunctionInfo, expr: ast.expr
    ) -> FunctionInfo | None:
        """A ``target=``/``submit`` callable expression as a project function."""
        if isinstance(expr, ast.Name):
            scope: FunctionInfo | None = fn
            while scope is not None:
                nested = scope.nested.get(expr.id)
                if nested is not None:
                    return nested
                parent = scope.qualname.rsplit(".", 1)[0]
                scope = self.graph.functions.get(parent)
            resolved = self.graph.resolve(fn.module, expr.id)
            return self.graph.function(resolved) if resolved else None
        dotted = attr_chain(expr)
        if dotted.startswith("self.") and fn.cls is not None:
            parts = dotted.split(".")
            if len(parts) == 2:
                owner = self.graph.method_owner(fn.cls, parts[1])
                if owner is not None:
                    return owner.methods[parts[1]]
            return None
        if dotted:
            resolved = self.graph.resolve(fn.module, dotted)
            return self.graph.function(resolved) if resolved else None
        return None

    # ------------------------------------------------------------------ #
    # per-function lexical facts
    # ------------------------------------------------------------------ #

    def facts(self, fn: FunctionInfo) -> _Facts:
        cached = self._facts.get(fn.qualname)
        if cached is not None:
            return cached
        facts = _Facts()
        lock_attrs = self.class_lock_attrs(fn.cls) if fn.cls is not None else {}
        aliases = self._lock_aliases(fn, lock_attrs)

        def lock_key(expr: ast.expr) -> str | None:
            target = expr
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Name):
                return aliases.get(target.id) or self._module_lock_key(fn, target.id)
            dotted = attr_chain(target)
            if (
                dotted.startswith("self.")
                and dotted.count(".") == 1
                and fn.cls is not None
            ):
                attr = dotted.split(".", 1)[1]
                if attr in lock_attrs and not lock_attrs[attr]:
                    return f"{fn.cls.qualname}.{attr}"
            return None

        def visit(node: ast.AST, held: tuple[str, ...]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = list(held)
                for item in node.items:
                    key = lock_key(item.context_expr)
                    if key is not None:
                        facts.acquisitions.append((key, item.context_expr, tuple(acquired)))
                        acquired.append(key)
                for stmt in node.body:
                    visit(stmt, tuple(acquired))
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # analyzed as their own graph nodes
            store_attr = self._self_store_attr(node)
            if store_attr is not None:
                facts.mutations.append((node, store_attr, held))
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                    and lock_key(node.func.value) is not None
                ):
                    facts.coarse_guard = True
                    key = lock_key(node.func.value)
                    if key is not None:
                        facts.acquisitions.append((key, node, held))
                target = self.graph.resolve_call(fn, node)
                if target is not None:
                    facts.calls.append((node, target, held))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn.node.body:
            visit(stmt, ())
        self._facts[fn.qualname] = facts
        return facts

    def _lock_aliases(
        self, fn: FunctionInfo, lock_attrs: Mapping[str, bool]
    ) -> dict[str, str]:
        """Local names bound to a lock attribute (``lock = self._locks[i]``)."""
        aliases: dict[str, str] = {}
        if fn.cls is None:
            return aliases
        for node in walk_own(fn.node, include_nested=False):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Subscript):
                value = value.value
            dotted = attr_chain(value)
            if dotted.startswith("self.") and dotted.count(".") == 1:
                attr = dotted.split(".", 1)[1]
                if attr in lock_attrs and not lock_attrs[attr]:
                    aliases[target.id] = f"{fn.cls.qualname}.{attr}"
        return aliases

    def _module_lock_key(self, fn: FunctionInfo, name: str) -> str | None:
        module = self.graph.modules.get(fn.module)
        if module is None:
            return None
        stmt = module.symbols.get(name)
        if isinstance(stmt, ast.Assign):
            call = constructor_call(stmt.value)
            if call is not None:
                target = self.graph.resolve(fn.module, call_name(call)) or call_name(call)
                if target in _LOCK_FACTORIES:
                    return f"{fn.module}.{name}"
        return None

    @staticmethod
    def _self_store_attr(node: ast.AST) -> str | None:
        """The attribute a ``self.x = / self.x op= / self.x[k] =`` store hits."""
        target: ast.AST | None = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            target = node
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            target = node.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    # ------------------------------------------------------------------ #
    # mutation closure
    # ------------------------------------------------------------------ #

    def check_mutations(self, rule: Rule, roots: list[_Root]) -> list[Finding]:
        findings: list[Finding] = []
        reported: set[tuple[str, int, str]] = set()
        seen: set[tuple[str, bool]] = set()
        queue: list[tuple[FunctionInfo, bool, _Root]] = [
            (root.fn, False, root) for root in roots
        ]
        while queue:
            fn, guarded, root = queue.pop()
            state = (fn.qualname, guarded)
            if state in seen:
                continue
            seen.add(state)
            facts = self.facts(fn)
            effective = guarded or facts.coarse_guard or fn.name.endswith("_locked")
            lock_attrs = self.class_lock_attrs(fn.cls) if fn.cls is not None else {}
            # Constructor-protocol methods run on objects no other thread
            # can see yet; their stores are confinement, not sharing.
            if fn.name not in ("__init__", "__new__", "__setstate__"):
                for node, attr, held in facts.mutations:
                    if effective or held or attr in lock_attrs:
                        continue
                    key = (fn.source.rel_path, int(getattr(node, "lineno", 1)), attr)
                    if key in reported or fn.cls is None:
                        continue
                    reported.add(key)
                    findings.append(
                        rule.finding(
                            fn.source,
                            node,
                            f"'{fn.cls.name}.{attr}' is mutated in "
                            f"{fn.name}() on a concurrent call path without a "
                            "held lock; guard it with a threading.Lock or make "
                            "it a threading.local",
                            related=(
                                RelatedLocation(
                                    root.site_path, root.site_line, root.why
                                ),
                            ),
                        )
                    )
            for call, target, held in facts.calls:
                callee = self.graph.function(target)
                if callee is None:
                    continue
                call_guarded = effective or bool(held)
                if callee.name.endswith("_locked") and not call_guarded:
                    key = (
                        fn.source.rel_path,
                        int(call.lineno),
                        f"call:{callee.qualname}",
                    )
                    if key not in reported:
                        reported.add(key)
                        findings.append(
                            rule.finding(
                                fn.source,
                                call,
                                f"{callee.name}() requires its caller to hold "
                                "the lock (the *_locked convention) but is "
                                "called here on an unguarded concurrent path",
                                related=(
                                    RelatedLocation(
                                        callee.source.rel_path,
                                        int(callee.node.lineno),
                                        f"definition of {callee.qualname}",
                                    ),
                                ),
                            )
                        )
                queue.append((callee, call_guarded, root))
        return findings

    # ------------------------------------------------------------------ #
    # lock-order inversions
    # ------------------------------------------------------------------ #

    def check_lock_order(
        self, rule: Rule, order_modules: tuple[str, ...]
    ) -> list[Finding]:
        # acquired-before edges: (held, acquired) -> first site observed.
        edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]] = {}
        seen: set[tuple[str, frozenset[str]]] = set()
        queue: list[tuple[FunctionInfo, frozenset[str]]] = [
            (fn, frozenset()) for fn in self.graph.functions.values()
        ]
        while queue and len(seen) < 20000:
            fn, held = queue.pop()
            state = (fn.qualname, held)
            if state in seen:
                continue
            seen.add(state)
            facts = self.facts(fn)
            for key, node, lexical in facts.acquisitions:
                for prior in held | set(lexical):
                    if prior != key:
                        edges.setdefault((prior, key), (fn, node))
            for _, target, lexical in facts.calls:
                callee = self.graph.function(target)
                if callee is not None:
                    queue.append((callee, held | set(lexical)))

        findings: list[Finding] = []
        reported_pairs: set[frozenset[str]] = set()
        for (first, second), (fn, node) in sorted(
            edges.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            opposite = edges.get((second, first))
            if opposite is None:
                continue
            pair = frozenset((first, second))
            if pair in reported_pairs:
                continue
            in_scope = path_in(fn.source.rel_path, order_modules) or path_in(
                opposite[0].source.rel_path, order_modules
            )
            if not in_scope:
                continue
            reported_pairs.add(pair)
            findings.append(
                rule.finding(
                    fn.source,
                    node,
                    f"lock-order inversion: '{second}' is acquired here while "
                    f"holding '{first}', but the opposite order also exists; "
                    "pick one global order to avoid deadlock",
                    related=(
                        RelatedLocation(
                            opposite[0].source.rel_path,
                            int(getattr(opposite[1], "lineno", 1)),
                            f"'{first}' acquired while holding '{second}' "
                            f"in {opposite[0].qualname}",
                        ),
                    ),
                )
            )
        return findings
