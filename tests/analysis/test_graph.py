"""ProjectGraph: the indexes every cross-module rule stands on."""

from repro.analysis.core import SourceTree
from repro.analysis.graph import ProjectGraph, module_name_for


def build(project, files):
    root = project(files)
    tree = SourceTree.load(root, [root / "src"])
    return ProjectGraph.build(tree)


class TestModuleNaming:
    def test_src_prefix_is_stripped(self):
        assert module_name_for("src/repro/obs/metrics.py") == "repro.obs.metrics"

    def test_package_init_names_the_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"


class TestImportResolution:
    def test_absolute_and_aliased_imports(self, project):
        graph = build(
            project,
            {
                "src/pkg/a.py": """
                    import threading
                    from threading import Lock as TLock
                """,
            },
        )
        assert graph.resolve("pkg.a", "threading.Lock") == "threading.Lock"
        assert graph.resolve("pkg.a", "TLock") == "threading.Lock"

    def test_relative_import_climbs_packages(self, project):
        graph = build(
            project,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/sub/__init__.py": "",
                "src/pkg/base.py": "class Base:\n    pass\n",
                "src/pkg/sub/mod.py": "from ..base import Base\n",
            },
        )
        assert graph.resolve("pkg.sub.mod", "Base") == "pkg.base.Base"


class TestHierarchy:
    FILES = {
        "src/pkg/__init__.py": "",
        "src/pkg/base.py": """
            class Base:
                def __init__(self):
                    self.x = 0

                def hello(self):
                    return "base"
        """,
        "src/pkg/child.py": """
            from .base import Base

            class Child(Base):
                def __init__(self):
                    super().__init__()
                    self.y = 1
        """,
    }

    def test_mro_crosses_modules(self, project):
        graph = build(project, self.FILES)
        child = graph.classes["pkg.child.Child"]
        assert [c.qualname for c in graph.mro(child)] == [
            "pkg.child.Child",
            "pkg.base.Base",
        ]

    def test_method_owner_walks_the_mro(self, project):
        graph = build(project, self.FILES)
        child = graph.classes["pkg.child.Child"]
        owner = graph.method_owner(child, "hello")
        assert owner is not None and owner.qualname == "pkg.base.Base"

    def test_subclasses_of_matches_bare_base_names(self, project):
        graph = build(project, self.FILES)
        subs = {cls.qualname for cls in graph.subclasses_of(["Base"])}
        assert "pkg.child.Child" in subs


class TestCallResolution:
    def test_self_call_and_attribute_receiver(self, project):
        graph = build(
            project,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/engine.py": """
                    from .sink import Sink

                    class Engine:
                        def __init__(self):
                            self.sink = Sink()

                        def run(self):
                            self.step()
                            self.sink.write()

                        def step(self):
                            pass
                """,
                "src/pkg/sink.py": """
                    class Sink:
                        def write(self):
                            pass
                """,
            },
        )
        run = graph.functions["pkg.engine.Engine.run"]
        targets = {target for _, target in graph.callees(run)}
        assert "pkg.engine.Engine.step" in targets
        assert "pkg.sink.Sink.write" in targets

    def test_nested_function_is_a_graph_node(self, project):
        graph = build(
            project,
            {
                "src/pkg/loop.py": """
                    class Loop:
                        def start(self):
                            def run():
                                self.tick()
                            return run

                        def tick(self):
                            pass
                """,
            },
        )
        nested = graph.functions["pkg.loop.Loop.start.run"]
        targets = {target for _, target in graph.callees(nested)}
        assert "pkg.loop.Loop.tick" in targets

    def test_reachable_closure(self, project):
        graph = build(
            project,
            {
                "src/pkg/chain.py": """
                    def a():
                        b()

                    def b():
                        c()

                    def c():
                        pass

                    def unrelated():
                        pass
                """,
            },
        )
        closure = graph.reachable([graph.functions["pkg.chain.a"]])
        assert set(closure) == {"pkg.chain.a", "pkg.chain.b", "pkg.chain.c"}
