"""Whole-program project model: symbol table and cross-module call graph.

The project rules ask questions no single file answers: "is this
``self._run_batch_query`` call the method defined 40 lines down?",
"which functions can a coroutine reach without an executor hop?".  This
module parses the whole tree **once** into:

* a module table (dotted name → :class:`~repro.devtools.context.ModuleContext`),
* a symbol table of functions, methods, and classes keyed by qualified
  name (``repro.resources.base.ExternalResource.context_terms``),
* a conservative **call graph** of :class:`CallEdge` records.

Resolution strategy (purely static, never imports the analyzed code):

1. bare names — a function defined in the same module, else whatever
   the module's :class:`~repro.devtools.imports.ImportTracker` binds;
2. dotted names whose head is an import binding (``annotate.merge_important``);
3. ``self.method()`` / ``cls.method()`` inside a class body — resolved
   against the class and its project-local base classes (nearest
   definition wins, mirroring the MRO for single inheritance);
4. ``ClassName(...)`` — an edge to ``ClassName.__init__`` when the
   class is in the project.

Unresolvable calls (higher-order values, ``getattr`` tricks, foreign
libraries) produce no edge; rules treat absence of an edge as "unknown",
never as proof of safety or guilt.

Every edge carries the *kind* of control transfer:

``direct``
    an ordinary call (or an awaited coroutine call): the callee runs on
    the caller's thread, and, inside a coroutine, on the event loop;
``executor``
    the callee is handed to a pool — ``loop.run_in_executor(...)``,
    ``asyncio.to_thread(...)``, ``executor.submit(...)`` — and runs on
    a worker thread, *off* the event loop;
``thread``
    the callee is a thread entry point: ``threading.Thread(target=f)``
    or a ``run_in_thread(f)``-style helper.

ASYNC001 and RACE002 walk ``direct`` edges to decide what runs on the
loop and treat ``executor``/``thread`` edges as hops onto worker
threads.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext, infer_module_name, python_files

__all__ = ["CallEdge", "FunctionInfo", "ClassInfo", "ProjectModel"]

#: :attr:`CallEdge.kind` values.
EDGE_DIRECT = "direct"
EDGE_EXECUTOR = "executor"
EDGE_THREAD = "thread"

#: Dotted-name suffix of the helper that runs its first argument on a
#: dedicated thread (the serving bridge's ``run_in_thread``).
_THREAD_HELPER = ".run_in_thread"


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller → callee edge.

    ``kind`` says how control transfers (module constants
    ``EDGE_DIRECT``/``EDGE_EXECUTOR``/``EDGE_THREAD``); ``awaited`` is
    True for ``await f(...)`` call sites; ``line`` is the call site's
    line in the caller's module.
    """

    callee: str
    kind: str
    line: int
    awaited: bool = False


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: "str | None" = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_async(self) -> bool:
        """True for ``async def`` (coroutine) functions."""
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ClassInfo:
    """One class definition with its methods and resolvable bases."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Qualified names of base classes (project-local or imported).
    bases: "tuple[str, ...]" = ()


class ProjectModel:
    """Symbol table + call graph over a set of modules."""

    def __init__(self, contexts: "list[ModuleContext]") -> None:
        #: dotted module name -> context
        self.modules: dict[str, ModuleContext] = {}
        #: qualified name -> FunctionInfo (functions and methods)
        self.functions: dict[str, FunctionInfo] = {}
        #: qualified name -> ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        #: module name -> {local top-level symbol -> qualified name}
        self._module_symbols: dict[str, dict[str, str]] = {}
        for ctx in contexts:
            self._index_module(ctx)
        self._resolve_bases()
        #: caller qualname -> ordered CallEdge records (kind-aware)
        self._edges: dict[str, tuple[CallEdge, ...]] = {}
        #: caller qualname -> tuple of unresolved callee expressions
        self._unresolved: dict[str, tuple[str, ...]] = {}
        for info in self.functions.values():
            self._index_calls(info)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: "list[str | Path]") -> "ProjectModel":
        """Parse every ``*.py`` under ``paths`` (files or trees).

        Files that fail to parse are skipped — the per-module pass
        already reports them as ``PARSE`` findings.
        """
        contexts: list[ModuleContext] = []
        for file_path in python_files(paths):
            try:
                text = file_path.read_text(encoding="utf-8")
                contexts.append(ModuleContext(text, path=str(file_path)))
            except (OSError, SyntaxError):
                continue
        return cls(contexts)

    def _index_module(self, ctx: ModuleContext) -> None:
        module = ctx.module or infer_module_name(ctx.path)
        self.modules[module] = ctx
        symbols: dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module}.{stmt.name}" if module else stmt.name
                info = FunctionInfo(qualname=qualname, module=module, node=stmt)
                self.functions[qualname] = info
                symbols[stmt.name] = qualname
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{module}.{stmt.name}" if module else stmt.name
                cls_info = ClassInfo(qualname=qualname, module=module, node=stmt)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qualname = f"{qualname}.{item.name}"
                        method = FunctionInfo(
                            qualname=method_qualname,
                            module=module,
                            node=item,
                            class_name=stmt.name,
                        )
                        self.functions[method_qualname] = method
                        cls_info.methods[item.name] = method
                self.classes[qualname] = cls_info
                symbols[stmt.name] = qualname
        self._module_symbols[module] = symbols

    def _resolve_bases(self) -> None:
        for cls_info in self.classes.values():
            ctx = self.modules[cls_info.module]
            bases: list[str] = []
            for base in cls_info.node.bases:
                resolved = self.resolve_symbol(ctx, base)
                if resolved is not None:
                    bases.append(resolved)
            cls_info.bases = tuple(bases)

    # -- symbol resolution ------------------------------------------------------

    def resolve_symbol(self, ctx: ModuleContext, node: ast.AST) -> "str | None":
        """Qualified name of a Name/Attribute chain: module-local
        symbols first, then the module's import bindings."""
        if isinstance(node, ast.Name):
            local = self._module_symbols.get(ctx.module, {}).get(node.id)
            if local is not None:
                return local
        return ctx.resolve(node)

    def lookup_method(self, class_qualname: str, method: str) -> "FunctionInfo | None":
        """Find ``method`` on a class or its project-local bases."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls_info = self.classes.get(current)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method]
            queue.extend(cls_info.bases)
        return None

    # -- call graph -------------------------------------------------------------

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> "FunctionInfo | None":
        """The project function a call statically resolves to, if any."""
        ctx = self.modules.get(caller.module)
        if ctx is None:
            return None
        func = call.func
        # self.method() / cls.method()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            return self.lookup_method(
                f"{caller.module}.{caller.class_name}", func.attr
            )
        qualified = self.resolve_symbol(ctx, func)
        if qualified is None:
            return None
        if qualified in self.functions:
            return self.functions[qualified]
        if qualified in self.classes:
            init = self.lookup_method(qualified, "__init__")
            if init is not None:
                return init
        return None

    def _callable_target(
        self, caller: FunctionInfo, node: ast.expr
    ) -> "FunctionInfo | None":
        """Resolve a *callable reference* (not a call): ``helper``,
        ``self.method``, ``module.helper``, ``partial(helper, ...)``,
        ``ClassName`` (→ ``__call__`` else ``__init__``)."""
        ctx = self.modules.get(caller.module)
        if ctx is None:
            return None
        # functools.partial(fn, ...) wraps fn; unwrap one level.
        if isinstance(node, ast.Call):
            qualified = self.resolve_symbol(ctx, node.func)
            if qualified == "functools.partial" and node.args:
                return self._callable_target(caller, node.args[0])
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            return self.lookup_method(
                f"{caller.module}.{caller.class_name}", node.attr
            )
        qualified = self.resolve_symbol(ctx, node)
        if qualified is None:
            return None
        if qualified in self.functions:
            return self.functions[qualified]
        if qualified in self.classes:
            for method in ("__call__", "__init__"):
                found = self.lookup_method(qualified, method)
                if found is not None:
                    return found
        return None

    def _dispatch_target(
        self, caller: FunctionInfo, call: ast.Call
    ) -> "tuple[FunctionInfo, str] | None":
        """``(target, edge kind)`` when ``call`` hands a callable to an
        executor or a thread instead of invoking it in place."""
        ctx = self.modules.get(caller.module)
        if ctx is None:
            return None
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        qualified = self.resolve_symbol(ctx, func)
        handed: "ast.expr | None" = None
        kind = EDGE_EXECUTOR
        if attr == "run_in_executor" and len(call.args) >= 2:
            handed = call.args[1]  # loop.run_in_executor(executor, fn, ...)
        elif (attr == "submit" or qualified == "asyncio.to_thread") and call.args:
            handed = call.args[0]  # executor.submit(fn) / to_thread(fn)
        elif qualified == "threading.Thread":
            kind = EDGE_THREAD
            handed = next(
                (kw.value for kw in call.keywords if kw.arg == "target"), None
            )
        elif qualified is not None and call.args and (
            qualified.endswith(_THREAD_HELPER) or qualified == _THREAD_HELPER[1:]
        ):
            kind = EDGE_THREAD
            handed = call.args[0]  # run_in_thread(fn, ...)
        if handed is None:
            return None
        target = self._callable_target(caller, handed)
        return None if target is None else (target, kind)

    def _index_calls(self, info: FunctionInfo) -> None:
        edges: list[CallEdge] = []
        unresolved: list[str] = []
        awaited_calls = {
            id(node.value)
            for node in ast.walk(info.node)
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
        }
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dispatched = self._dispatch_target(info, node)
            if dispatched is not None:
                target, kind = dispatched
                edges.append(
                    CallEdge(
                        callee=target.qualname,
                        kind=kind,
                        line=node.lineno,
                        awaited=id(node) in awaited_calls,
                    )
                )
                continue
            resolved = self.resolve_call(info, node)
            if resolved is not None:
                edges.append(
                    CallEdge(
                        callee=resolved.qualname,
                        kind=EDGE_DIRECT,
                        line=node.lineno,
                        awaited=id(node) in awaited_calls,
                    )
                )
            else:
                try:
                    unresolved.append(ast.unparse(node.func))
                except Exception:  # pragma: no cover - unparse edge case
                    unresolved.append("<?>")
        self._edges[info.qualname] = tuple(edges)
        self._unresolved[info.qualname] = tuple(unresolved)

    def callees(self, qualname: str) -> frozenset[str]:
        """Qualnames ``qualname`` calls or dispatches, any edge kind."""
        return frozenset(edge.callee for edge in self.call_edges(qualname))

    def call_edges(self, qualname: str) -> "tuple[CallEdge, ...]":
        """Kind-aware edges out of ``qualname`` in call-site order."""
        return self._edges.get(qualname, ())

    # -- concurrency views --------------------------------------------------------

    def async_functions(self) -> "list[str]":
        """Qualnames of every ``async def``, sorted."""
        return sorted(
            qualname
            for qualname, info in self.functions.items()
            if info.is_async
        )

    def dispatch_targets(self) -> "set[str]":
        """Functions handed to an executor or thread anywhere in the
        project — the roots of worker-thread call paths."""
        return {
            edge.callee
            for edges in self._edges.values()
            for edge in edges
            if edge.kind != EDGE_DIRECT
        }

    def reachable_via(
        self, roots: "list[str] | set[str]", kinds: "tuple[str, ...]" = (EDGE_DIRECT,)
    ) -> "dict[str, tuple[str, ...]]":
        """Functions reachable from ``roots`` following only edges of
        the given kinds; maps each reached qualname to its shortest
        call path ``(root, ..., qualname)``.  Deterministic: roots and
        neighbours are visited in sorted order (BFS, first path wins).
        """
        paths: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            succ = sorted(
                {
                    edge.callee
                    for edge in self._edges.get(current, ())
                    if edge.kind in kinds
                }
            )
            for callee in succ:
                if callee in paths:
                    continue
                paths[callee] = paths[current] + (callee,)
                queue.append(callee)
        return paths

    def unresolved_calls(self, qualname: str) -> "tuple[str, ...]":
        return self._unresolved.get(qualname, ())

    def context_for(self, info: FunctionInfo) -> ModuleContext:
        return self.modules[info.module]
