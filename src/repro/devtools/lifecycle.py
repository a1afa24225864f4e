"""Path-sensitive must-close analysis for acquired resources.

The serving and incremental stacks hold real OS state — SQLite
connections, sockets, executors, temp files — and a handle that is not
released on *every* CFG path, exception edges included, is a slow leak
under sustained traffic.  This module tracks each acquisition **site**
through a tiny abstract domain:

``open``
    acquired on some path and still our responsibility;
``closed``
    a per-spec release method ran (``close``/``shutdown``/``cleanup``),
    or a closing ``with`` suite manages it;
``escaped``
    ownership transferred — returned, yielded, stored on an object,
    put in a container, or passed to another call.

The abstract state is an environment (local name → possible sites,
plus the set of may-open sites) pushed through the CFG by
:func:`repro.devtools.dataflow.solve_forward_env`; a site still open in
the exit block's in-state leaks on at least one path.  ``with`` handling
is spec-aware: ``with open(p) as f:`` closes, but ``with
sqlite3.connect(p) as conn:`` only wraps a *transaction* — the
connection survives the suite, the classic stdlib trap — unless wrapped
in ``contextlib.closing``.

The analysis is intra-procedural and purely syntactic on locals:
attributes (``self._conn``) are treated as escapes, so object-held
handles are the owning class's job (``close()`` methods).  That keeps
false positives near zero at the cost of missing whole-object leaks.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .cfg import CFG
from .dataflow import solve_forward_env

__all__ = [
    "ResourceSpec",
    "Site",
    "Leak",
    "LifecycleAnalysis",
    "acquire_spec",
    "RESOURCE_SPECS",
]


@dataclass(frozen=True)
class ResourceSpec:
    """How one resource kind is acquired and released."""

    #: Human-readable label for messages ("sqlite3 connection").
    label: str
    #: Receiver methods that release the resource.
    close_methods: tuple[str, ...]
    #: Whether ``with ACQUIRE() as x:`` releases on suite exit.  True
    #: for files/sockets/executors; **False** for ``sqlite3.connect``,
    #: whose context manager only scopes a transaction.
    with_closes: bool


#: Resolved qualified name → spec.  The ``open`` builtin is special-cased
#: in :func:`acquire_spec` (it resolves to no dotted name).
RESOURCE_SPECS: dict[str, ResourceSpec] = {
    "sqlite3.connect": ResourceSpec(
        "sqlite3 connection", ("close",), with_closes=False
    ),
    "socket.socket": ResourceSpec("socket", ("close", "detach"), with_closes=True),
    "socket.create_connection": ResourceSpec(
        "socket", ("close", "detach"), with_closes=True
    ),
    "concurrent.futures.ThreadPoolExecutor": ResourceSpec(
        "thread-pool executor", ("shutdown",), with_closes=True
    ),
    "concurrent.futures.ProcessPoolExecutor": ResourceSpec(
        "process-pool executor", ("shutdown",), with_closes=True
    ),
    "tempfile.NamedTemporaryFile": ResourceSpec(
        "named temp file", ("close",), with_closes=True
    ),
    "tempfile.TemporaryDirectory": ResourceSpec(
        "temp directory", ("cleanup",), with_closes=True
    ),
}

_OPEN_SPEC = ResourceSpec("file handle", ("close",), with_closes=True)

#: Qualified names of the ``closing`` wrapper that turns any
#: ``.close()``-bearing object into a releasing context manager.
_CLOSING_NAMES = ("contextlib.closing", "closing")


def acquire_spec(
    call: ast.Call, resolve: "Callable[[ast.AST], str | None]"
) -> "ResourceSpec | None":
    """The spec when ``call`` acquires a tracked resource, else None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return _OPEN_SPEC
    qualified = resolve(func)
    if qualified is None:
        return None
    return RESOURCE_SPECS.get(qualified)


def _is_closing_wrapper(
    call: ast.Call, resolve: "Callable[[ast.AST], str | None]"
) -> bool:
    qualified = resolve(call.func)
    if qualified in _CLOSING_NAMES:
        return True
    return isinstance(call.func, ast.Name) and call.func.id == "closing"


@dataclass(frozen=True)
class Site:
    """One acquisition site (a tracked resource-constructor call)."""

    site_id: int
    node: ast.Call
    spec: ResourceSpec
    #: Local name bound at the acquire (None for unbound expressions).
    name: "str | None"


@dataclass(frozen=True)
class Leak:
    """A site still open in the exit state on at least one path."""

    site: Site
    #: True when *some* path does release it — i.e. the leak is
    #: path-dependent (usually the exception edges).
    closed_somewhere: bool


@dataclass
class _State:
    """Abstract environment: name → may-denote sites, plus may-open set.

    Compared with ``==`` by the solver; treat instances as immutable
    (every transfer builds fresh containers).
    """

    bindings: dict[str, frozenset[int]] = field(default_factory=dict)
    open_sites: frozenset[int] = frozenset()


def _join(states: "list[_State]") -> _State:
    bindings: dict[str, frozenset[int]] = {}
    open_sites: frozenset[int] = frozenset()
    for state in states:
        open_sites |= state.open_sites
        for name, sites in state.bindings.items():
            bindings[name] = bindings.get(name, frozenset()) | sites
    return _State(bindings, open_sites)


class LifecycleAnalysis:
    """Must-close analysis of one function (or module) body.

    ``resolve`` maps a Name/Attribute chain to its qualified name — the
    :meth:`repro.devtools.context.ModuleContext.resolve` hook — so the
    analysis itself stays import-table agnostic.
    """

    def __init__(
        self,
        body: "list[ast.stmt]",
        resolve: "Callable[[ast.AST], str | None]",
    ) -> None:
        self._resolve = resolve
        self.cfg = CFG.from_statements(body)
        #: id(call node) → Site, assigned deterministically in block
        #: order *before* the fixed point runs (transfer re-executes).
        self._sites_by_node: dict[int, Site] = {}
        self._sites: list[Site] = []
        self._collect_sites()
        self._closed_sites: set[int] = set()
        self._in_states, self._out_states = solve_forward_env(
            self.cfg, self._transfer, _join, _State()
        )

    # -- site discovery ------------------------------------------------------------

    def _collect_sites(self) -> None:
        for block_id in sorted(self.cfg.blocks):
            for stmt in self.cfg.blocks[block_id].statements:
                for node in self._stmt_walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    spec = acquire_spec(node, self._resolve)
                    if spec is None:
                        continue
                    site = Site(
                        site_id=len(self._sites),
                        node=node,
                        spec=spec,
                        name=self._bound_name(stmt, node),
                    )
                    self._sites.append(site)
                    self._sites_by_node[id(node)] = site

    @staticmethod
    def _stmt_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
        """The statement's own expressions — compound bodies belong to
        other CFG blocks, nested defs are separate scopes."""
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            roots: list[ast.AST] = [item.context_expr for item in stmt.items]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots = [stmt.iter]
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            roots = []
        else:
            roots = [stmt]
        for root in roots:
            stack: list[ast.AST] = [root]
            while stack:
                node = stack.pop()
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                yield node
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _bound_name(stmt: ast.stmt, call: ast.Call) -> "str | None":
        if isinstance(stmt, ast.Assign) and stmt.value is call:
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                return stmt.targets[0].id
        if isinstance(stmt, ast.AnnAssign) and stmt.value is call:
            if isinstance(stmt.target, ast.Name):
                return stmt.target.id
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                managed = item.context_expr
                if isinstance(managed, ast.Call) and (
                    managed is call
                    or (managed.args and managed.args[0] is call)
                ):
                    if isinstance(item.optional_vars, ast.Name):
                        return item.optional_vars.id
        return None

    # -- transfer function ---------------------------------------------------------

    def _transfer(self, block_id: int, in_state: _State) -> _State:
        bindings = dict(in_state.bindings)
        open_sites = set(in_state.open_sites)
        for stmt in self.cfg.blocks[block_id].statements:
            self._interpret(stmt, bindings, open_sites)
        return _State(bindings, frozenset(open_sites))

    def _interpret(
        self,
        stmt: ast.stmt,
        bindings: "dict[str, frozenset[int]]",
        open_sites: "set[int]",
    ) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._interpret_with(stmt, bindings, open_sites)
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            sites = self._eval(stmt.value, bindings, open_sites)
            if isinstance(target, ast.Name):
                bindings[target.id] = sites
            else:
                # self.attr = x / d[k] = x: ownership transferred.
                self._escape(sites, open_sites)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            sites = self._eval(stmt.value, bindings, open_sites)
            if isinstance(stmt.target, ast.Name):
                bindings[stmt.target.id] = sites
            else:
                self._escape(sites, open_sites)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escape(
                    self._eval(stmt.value, bindings, open_sites), open_sites
                )
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    bindings.pop(target.id, None)
            return
        # Everything else: interpret each of the statement's own
        # expressions for acquire/close/escape effects.
        for root in self._expr_roots(stmt):
            self._eval(root, bindings, open_sites)

    @staticmethod
    def _expr_roots(stmt: ast.stmt) -> "list[ast.expr]":
        if isinstance(stmt, ast.Expr):
            return [stmt.value]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, ast.Assign):
            return [stmt.value]
        if isinstance(stmt, ast.AugAssign):
            return [stmt.value]
        if isinstance(stmt, ast.Raise):
            return [v for v in (stmt.exc, stmt.cause) if v is not None]
        if isinstance(stmt, ast.Assert):
            return [stmt.test]
        return []

    def _interpret_with(
        self,
        stmt: "ast.With | ast.AsyncWith",
        bindings: "dict[str, frozenset[int]]",
        open_sites: "set[int]",
    ) -> None:
        for item in stmt.items:
            expr = item.context_expr
            bound = (
                item.optional_vars.id
                if isinstance(item.optional_vars, ast.Name)
                else None
            )
            if isinstance(expr, ast.Call) and _is_closing_wrapper(
                expr, self._resolve
            ):
                # with closing(<expr>) as x: releases whatever <expr>
                # denotes — including a fresh acquire.
                inner = expr.args[0] if expr.args else None
                if inner is None:
                    continue
                sites = self._eval_managed(inner, bindings, open_sites)
                self._kill(sites, open_sites, any_method=True)
                if bound is not None:
                    bindings[bound] = sites
                continue
            if isinstance(expr, ast.Call):
                site = self._sites_by_node.get(id(expr))
                if site is not None:
                    # Evaluate arguments for nested effects first.
                    for arg in expr.args:
                        self._eval(arg, bindings, open_sites)
                    if site.spec.with_closes:
                        # Managed for real: never becomes our problem.
                        if bound is not None:
                            bindings[bound] = frozenset()
                        continue
                    # with sqlite3.connect() as conn: TRANSACTION scope
                    # only — the connection stays open past the suite.
                    open_sites.add(site.site_id)
                    if bound is not None:
                        bindings[bound] = frozenset({site.site_id})
                    continue
                self._eval(expr, bindings, open_sites)
                continue
            if isinstance(expr, ast.Name):
                # with x: — releases x only for with-closing specs.
                sites = bindings.get(expr.id, frozenset())
                self._kill(sites, open_sites, any_method=False, via_with=True)
                continue
            self._eval(expr, bindings, open_sites)

    def _eval_managed(
        self,
        node: ast.expr,
        bindings: "dict[str, frozenset[int]]",
        open_sites: "set[int]",
    ) -> frozenset:
        """Evaluate an expression whose result is context-managed."""
        if isinstance(node, ast.Call):
            site = self._sites_by_node.get(id(node))
            if site is not None:
                for arg in node.args:
                    self._eval(arg, bindings, open_sites)
                return frozenset({site.site_id})
        return self._eval(node, bindings, open_sites)

    def _eval(
        self,
        node: ast.expr,
        bindings: "dict[str, frozenset[int]]",
        open_sites: "set[int]",
    ) -> frozenset:
        """Interpret one expression; returns the sites it may denote."""
        if isinstance(node, ast.Name):
            return bindings.get(node.id, frozenset())
        if isinstance(node, ast.Await):
            return self._eval(node.value, bindings, open_sites)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._escape(
                    self._eval(node.value, bindings, open_sites), open_sites
                )
            return frozenset()
        if isinstance(node, ast.NamedExpr):
            sites = self._eval(node.value, bindings, open_sites)
            if isinstance(node.target, ast.Name):
                bindings[node.target.id] = sites
            return sites
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            merged: frozenset = frozenset()
            for element in node.elts:
                merged |= self._eval(element, bindings, open_sites)
            return merged
        if isinstance(node, ast.IfExp):
            self._eval(node.test, bindings, open_sites)
            return self._eval(node.body, bindings, open_sites) | self._eval(
                node.orelse, bindings, open_sites
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, bindings, open_sites)
        if isinstance(node, ast.Attribute):
            # Receiver use (f.name, conn.row_factory): not an escape.
            self._eval(node.value, bindings, open_sites)
            return frozenset()
        if isinstance(node, ast.Call):
            return self._eval_call(node, bindings, open_sites)
        # Generic fallback: evaluate children; any tracked site flowing
        # into an untracked construct escapes (comprehensions, f-strings,
        # subscripts, bin-ops...).
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._escape(
                    self._eval(child, bindings, open_sites), open_sites
                )
        return frozenset()

    def _eval_call(
        self,
        node: ast.Call,
        bindings: "dict[str, frozenset[int]]",
        open_sites: "set[int]",
    ) -> frozenset:
        func = node.func
        # x.close() / executor.shutdown() / tmpdir.cleanup()
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver_sites = bindings.get(func.value.id, frozenset())
            released = {
                site_id
                for site_id in receiver_sites
                if func.attr in self._sites[site_id].spec.close_methods
            }
            if released:
                self._kill(frozenset(released), open_sites, any_method=True)
                for arg in node.args:
                    self._eval(arg, bindings, open_sites)
                return frozenset()
        # Acquire?
        site = self._sites_by_node.get(id(node))
        if site is not None:
            for arg in node.args:
                self._eval(arg, bindings, open_sites)
            for keyword in node.keywords:
                self._eval(keyword.value, bindings, open_sites)
            open_sites.add(site.site_id)
            return frozenset({site.site_id})
        # Ordinary call: arguments escape (ownership may transfer to the
        # callee — `_write_artifact(conn)`, `stack.enter_context(f)`);
        # the receiver of a method call does not.
        if isinstance(func, ast.Attribute):
            self._eval(func.value, bindings, open_sites)
        for arg in node.args:
            self._escape(self._eval(arg, bindings, open_sites), open_sites)
        for keyword in node.keywords:
            self._escape(
                self._eval(keyword.value, bindings, open_sites), open_sites
            )
        return frozenset()

    def _escape(self, sites: frozenset, open_sites: "set[int]") -> None:
        open_sites.difference_update(sites)

    def _kill(
        self,
        sites: frozenset,
        open_sites: "set[int]",
        any_method: bool,
        via_with: bool = False,
    ) -> None:
        for site_id in sites:
            if via_with and not self._sites[site_id].spec.with_closes:
                continue
            open_sites.discard(site_id)
            self._closed_sites.add(site_id)

    # -- results -------------------------------------------------------------------

    def leaks(self) -> "list[Leak]":
        """Sites still open in the exit block's in-state, in site order."""
        exit_state = self._in_states.get(self.cfg.exit_id)
        if not isinstance(exit_state, _State):  # pragma: no cover - defensive
            return []
        return [
            Leak(
                site=self._sites[site_id],
                closed_somewhere=site_id in self._closed_sites,
            )
            for site_id in sorted(exit_state.open_sites)
        ]

    @property
    def sites(self) -> "tuple[Site, ...]":
        return tuple(self._sites)
