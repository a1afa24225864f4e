"""Taint propagation: declarative source → sanitizer → sink rules.

A :class:`TaintSpec` names three pattern sets:

* **sources** — calls whose result is suspect (a raw external-resource
  response);
* **sanitizers** — calls that clean a suspect value
  (``validate_context_terms``);
* **sinks** — calls a suspect value must never reach unclean
  (``ExternalResource._memory_put``).

Patterns come in two forms:

``attr:name``
    matches any attribute call ``<expr>.name(...)`` — used when the
    receiver's type cannot be resolved statically (``self._persistent``
    is just an attribute to the AST);
``glob``
    an :mod:`fnmatch` glob matched against the call's *resolved*
    qualified name (module-local symbols and import bindings via the
    project model), e.g. ``repro.resources.base.validate_context_terms``
    or ``*.frequent_snippet_terms``.

The engine runs a forward abstract interpretation over each function's
CFG on the shared solver,
:func:`~repro.devtools.dataflow.solve_forward_env`: the state maps
local names to the source label that tainted them, and paths join by
keeping each name's least label.
Taint propagates through assignments, containers (``tuple``/``list``/
``sorted``/comprehensions, dict display values), attribute/subscript
access, stores into a local's item (``name[k] = v`` taints ``name``;
a weak update that never clears it), and **calls to
project functions whose summaries say their return value is tainted**
(one level inter-procedural via the call graph; summaries are memoized
and computed on demand).  Unknown calls drop taint — the engine prefers
false negatives over drowning the tree in speculative findings; code
review still exists.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase

from .cfg import CFG
from .context import ModuleContext
from .dataflow import pruned_walk, shallow_expressions, solve_forward_env
from .project import FunctionInfo, ProjectModel

__all__ = ["TaintSpec", "TaintHit", "TaintEngine"]

#: Builtins that return a rearrangement of their (first) argument — they
#: carry taint through instead of cleaning it.
_PROPAGATING_BUILTINS = frozenset(
    {"tuple", "list", "set", "frozenset", "sorted", "reversed", "iter", "filter"}
)


@dataclass(frozen=True)
class TaintSpec:
    """One taint rule's patterns (see module docstring for syntax)."""

    sources: tuple[str, ...]
    sanitizers: tuple[str, ...]
    sinks: tuple[str, ...]


@dataclass(frozen=True)
class TaintHit:
    """A tainted value reaching a sink call."""

    node: ast.Call
    source_label: str


def _matches(
    call: ast.Call,
    patterns: "tuple[str, ...]",
    project: ProjectModel,
    ctx: ModuleContext,
) -> "str | None":
    """The first pattern ``call`` matches, or None."""
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    qualified: "str | None | bool" = False  # False = not yet resolved
    for pattern in patterns:
        if pattern.startswith("attr:"):
            if attr is not None and attr == pattern[5:]:
                return pattern
            continue
        if qualified is False:
            qualified = project.resolve_symbol(ctx, func)
        if qualified is not None and fnmatchcase(str(qualified), pattern):
            return pattern
    return None


def _join(envs: "list[dict[str, str]]") -> dict[str, str]:
    """Union of the predecessors' environments; a name tainted on
    several paths keeps the least label."""
    joined: dict[str, str] = {}
    for env in envs:
        for name, label in env.items():
            if name not in joined or label < joined[name]:
                joined[name] = label
    return joined


class _FunctionTaint:
    """Abstract interpretation of one function under one spec."""

    def __init__(
        self,
        engine: "TaintEngine",
        info: FunctionInfo,
    ) -> None:
        self.engine = engine
        self.info = info
        self.ctx = engine.project.context_for(info)
        self.cfg = CFG.from_function(info.node)
        self.hits: list[TaintHit] = []
        self.returns_tainted = False
        self._run()

    # -- fixed point -------------------------------------------------------------

    def _run(self) -> None:
        in_states, _ = solve_forward_env(self.cfg, self._block_out, _join, {})
        # One collection pass over the solved in-states.
        for block_id in self.cfg.reverse_postorder():
            env = dict(in_states[block_id])
            for stmt in self.cfg.blocks[block_id].statements:
                self._transfer(stmt, env, collect=True)

    def _block_out(self, block_id: int, env_in: dict[str, str]) -> dict[str, str]:
        env = dict(env_in)
        for stmt in self.cfg.blocks[block_id].statements:
            self._transfer(stmt, env, collect=False)
        return env

    # -- transfer function -------------------------------------------------------

    def _transfer(
        self, stmt: ast.stmt, env: dict[str, str], collect: bool
    ) -> None:
        if collect:
            self._check_sinks(stmt, env)
        if isinstance(stmt, ast.Assign):
            label = self._expr_label(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, label, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._expr_label(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            label = self._expr_label(stmt.value, env)
            if label is not None:
                self._bind(stmt.target, label, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a tainted collection yields tainted elements.
            self._bind(stmt.target, self._expr_label(stmt.iter, env), env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(
                        item.optional_vars,
                        self._expr_label(item.context_expr, env),
                        env,
                    )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and self._expr_label(stmt.value, env):
                self.returns_tainted = True
        # Walrus assignments inside any expression of this statement.
        for root in shallow_expressions(stmt):
            for node in pruned_walk(root):
                if isinstance(node, ast.NamedExpr) and isinstance(
                    node.target, ast.Name
                ):
                    label = self._expr_label(node.value, env)
                    if label is not None:
                        env[node.target.id] = label
                    else:
                        env.pop(node.target.id, None)

    def _bind(
        self, target: ast.expr, label: "str | None", env: dict[str, str]
    ) -> None:
        if isinstance(target, ast.Name):
            if label is not None:
                env[target.id] = label
            else:
                env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, label, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, label, env)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and label is not None
        ):
            # A tainted item taints its container; a clean one leaves
            # the container's other items as they were.
            env[target.value.id] = label
        # attribute stores don't bind locals

    # -- expression labelling ----------------------------------------------------

    def _expr_label(self, node: "ast.expr | None", env: dict[str, str]) -> "str | None":
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            return self._call_label(node, env)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred, ast.Await)):
            return self._expr_label(node.value, env)
        if isinstance(node, ast.BinOp):
            parts = [node.left, node.right]
        elif isinstance(node, ast.IfExp):
            parts = [node.body, node.orelse]
        elif isinstance(node, ast.BoolOp):
            parts = node.values
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            parts = node.elts
        elif isinstance(node, ast.Dict):
            parts = node.values
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.JoinedStr):
            parts = [
                value.value
                for value in node.values
                if isinstance(value, ast.FormattedValue)
            ]
        else:
            return None
        return self._first_label(parts, env)

    def _first_label(self, nodes: "list[ast.expr]", env: dict[str, str]) -> "str | None":
        for node in nodes:
            label = self._expr_label(node, env)
            if label is not None:
                return label
        return None

    def _call_label(self, call: ast.Call, env: dict[str, str]) -> "str | None":
        spec = self.engine.spec
        project = self.engine.project
        if _matches(call, spec.sanitizers, project, self.ctx) is not None:
            return None
        source = _matches(call, spec.sources, project, self.ctx)
        if source is not None:
            try:
                rendered = ast.unparse(call.func)
            except Exception:  # pragma: no cover
                rendered = source
            return f"{rendered}() at line {call.lineno}"
        # Taint-through builtins: tuple(x), sorted(x), ...
        func = call.func
        if isinstance(func, ast.Name) and func.id in _PROPAGATING_BUILTINS:
            return self._first_label(call.args, env)
        # One level inter-procedural: a project callee whose return
        # value is tainted taints this call site.
        callee = project.resolve_call(self.info, call)
        if callee is not None and self.engine.returns_tainted(callee.qualname):
            return f"{callee.qualname}() (returns a tainted value)"
        return None

    # -- sinks -------------------------------------------------------------------

    def _check_sinks(self, stmt: ast.stmt, env: dict[str, str]) -> None:
        for node in self._shallow_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            if _matches(node, self.engine.spec.sinks, self.engine.project, self.ctx) is None:
                continue
            label = self._first_label(
                [*node.args, *(kw.value for kw in node.keywords)], env
            )
            if label is not None:
                self.hits.append(TaintHit(node=node, source_label=label))

    @staticmethod
    def _shallow_nodes(stmt: ast.stmt):
        for root in shallow_expressions(stmt):
            yield from pruned_walk(root)


class TaintEngine:
    """Runs one :class:`TaintSpec` over project functions."""

    def __init__(self, project: ProjectModel, spec: TaintSpec) -> None:
        self.project = project
        self.spec = spec
        self._summaries: dict[str, bool] = {}
        self._in_progress: set[str] = set()
        self._analyses: dict[str, _FunctionTaint] = {}

    def analyze_function(self, info: FunctionInfo) -> "list[TaintHit]":
        return self._analysis(info).hits

    def _analysis(self, info: FunctionInfo) -> _FunctionTaint:
        cached = self._analyses.get(info.qualname)
        if cached is None:
            # Guard against self-recursive functions: while this
            # analysis runs, summary queries about it answer "clean".
            self._in_progress.add(info.qualname)
            try:
                cached = _FunctionTaint(self, info)
            finally:
                self._in_progress.discard(info.qualname)
            self._analyses[info.qualname] = cached
        return cached

    def returns_tainted(self, qualname: str) -> bool:
        """Summary: can ``qualname``'s return value carry source taint?

        Memoized; recursion through the call graph is cut optimistically
        (a cycle member is assumed clean while its own summary is being
        computed — sound enough for the acyclic helper chains the rules
        target).
        """
        if qualname in self._summaries:
            return self._summaries[qualname]
        if qualname in self._in_progress:
            return False
        info = self.project.functions.get(qualname)
        if info is None:
            return False
        self._in_progress.add(qualname)
        try:
            result = self._analysis(info).returns_tainted
        finally:
            self._in_progress.discard(qualname)
        self._summaries[qualname] = result
        return result
