"""Project model: symbol table, call graph, and taint engine plumbing."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.devtools.context import ModuleContext
from repro.devtools.project import ProjectModel
from repro.devtools.taint import TaintEngine, TaintSpec


def _ctx(source: str, module: str) -> ModuleContext:
    return ModuleContext(
        textwrap.dedent(source),
        path=f"{module.replace('.', '/')}.py",
        module=module,
    )


@pytest.fixture()
def project() -> ProjectModel:
    """A two-module package exercising every resolution path."""
    base = _ctx(
        """
        class Base:
            def shared(self):
                return self.helper()

            def helper(self):
                return 1
        """,
        "pkg.base",
    )
    main = _ctx(
        """
        from pkg.base import Base

        def free():
            return local()

        def local():
            return 2

        class Child(Base):
            def __init__(self):
                self.x = free()

            def run(self):
                self.shared()
                return unknown_callable()

        def build():
            return Child()
        """,
        "pkg.main",
    )
    return ProjectModel([base, main])


def test_symbol_table_indexes_functions_methods_classes(project):
    assert "pkg.main.free" in project.functions
    assert "pkg.main.Child.run" in project.functions
    assert "pkg.base.Base" in project.classes
    assert project.classes["pkg.main.Child"].bases == ("pkg.base.Base",)


def test_call_graph_resolves_module_local_calls(project):
    assert "pkg.main.local" in project.callees("pkg.main.free")


def test_call_graph_resolves_inherited_method_through_self(project):
    # Child.run calls self.shared(), defined on the base class in
    # another module.
    assert "pkg.base.Base.shared" in project.callees("pkg.main.Child.run")
    # And Base.shared's own self-call stays in-class.
    assert "pkg.base.Base.helper" in project.callees("pkg.base.Base.shared")


def test_constructor_call_edges_to_init(project):
    assert "pkg.main.Child.__init__" in project.callees("pkg.main.build")


def test_unresolved_calls_are_recorded_not_guessed(project):
    assert "unknown_callable" in project.unresolved_calls("pkg.main.Child.run")
    assert not any(
        "unknown" in callee for callee in project.callees("pkg.main.Child.run")
    )


def test_reachability_walks_transitive_edges(project):
    reached = project.reachable_via(["pkg.main.free"])
    assert set(reached) == {"pkg.main.free", "pkg.main.local"}
    assert reached["pkg.main.local"] == ("pkg.main.free", "pkg.main.local")


def test_lookup_method_walks_base_classes(project):
    info = project.lookup_method("pkg.main.Child", "helper")
    assert info is not None
    assert info.qualname == "pkg.base.Base.helper"
    assert project.lookup_method("pkg.main.Child", "nope") is None


def test_from_paths_skips_unparsable_files(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f():\n    return 1\n", encoding="utf-8")
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    model = ProjectModel.from_paths([tmp_path])
    assert any(q.endswith(".f") or q == "good.f" for q in model.functions)


# -- taint engine summaries ---------------------------------------------------------


def test_returns_tainted_summary_and_memoization():
    ctx = _ctx(
        """
        class R:
            def _query(self, term):
                return [term]

            def passthrough(self, term):
                return self._query(term)

            def clean(self, term):
                return [term.upper()]
        """,
        "pkg.res",
    )
    project = ProjectModel([ctx])
    engine = TaintEngine(
        project,
        TaintSpec(sources=("attr:_query",), sanitizers=(), sinks=("attr:put",)),
    )
    assert engine.returns_tainted("pkg.res.R.passthrough") is True
    assert engine.returns_tainted("pkg.res.R.clean") is False
    assert engine.returns_tainted("pkg.res.R.passthrough") is True  # memoized
    assert engine.returns_tainted("pkg.res.does_not_exist") is False


def test_self_recursive_function_does_not_loop():
    ctx = _ctx(
        """
        class R:
            def _query(self, term):
                return [term]

            def rec(self, term, n):
                if n:
                    return self.rec(term, n - 1)
                return self._query(term)
        """,
        "pkg.res",
    )
    project = ProjectModel([ctx])
    engine = TaintEngine(
        project,
        TaintSpec(sources=("attr:_query",), sanitizers=(), sinks=("attr:put",)),
    )
    # Terminates, and the base case still marks the summary tainted.
    assert engine.returns_tainted("pkg.res.R.rec") is True


def test_resolve_symbol_prefers_module_locals_over_imports():
    ctx = _ctx(
        """
        from other import thing

        def thing():
            return 1
        """,
        "pkg.m",
    )
    project = ProjectModel([ctx])
    name_node = ast.Name(id="thing", ctx=ast.Load())
    assert project.resolve_symbol(ctx, name_node) == "pkg.m.thing"
