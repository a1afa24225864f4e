"""Flow-aware rules built on the project model, CFG, and taint engine.

========  ==============================================================
FLOW001   raw external-resource responses must be validated before any
          cache-write sink (``put``/``_memory_put``)
FLOW002   exceptions caught in resource/db paths must be re-raised,
          logged, or converted to a degrade event — no silent swallow
DET002    (reimplemented) unordered set/dict-view iteration feeding
          ordered output, tracked through assignments via reaching
          definitions instead of per-line syntax
========  ==============================================================

FLOW001 needs the whole program (method resolution, call graph) and
registers as a **project rule** (``requires_project = True``); FLOW002
and DET002 are per-module.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from .cfg import CFG
from .context import ModuleContext
from .dataflow import (
    Definition,
    ReachingDefinitions,
    pruned_walk,
    shallow_expressions,
)
from .findings import Finding, Severity
from .project import ProjectModel
from .rules import Rule
from .taint import TaintEngine, TaintSpec

# ---------------------------------------------------------------------------
# FLOW001 — unvalidated resource responses reaching cache writes
# ---------------------------------------------------------------------------

#: The taint rule FLOW001 runs: raw fetch results (``*._query`` and
#: ``*.query_many`` are the per-resource fetch hooks) must pass
#: ``validate_context_terms`` before any cache-write sink.
#: ``tuple()``/``sorted()``/comprehensions carry taint through; the
#: validator is the only sanitizer.
FLOW001_SPEC = TaintSpec(
    sources=("attr:_query", "attr:query_many"),
    sanitizers=(
        "attr:validate_context_terms",
        "*.validate_context_terms",
        "validate_context_terms",
    ),
    sinks=("attr:put", "attr:_memory_put"),
)


class UnvalidatedResourceFlowRule(Rule):
    """FLOW001: a raw response from a resource fetch (``_query`` and
    anything that returns one, e.g. ``_run_batch_query``) written
    into a cache poisons every later reader of that entry — across
    workers *and* across runs for the persistent tier.  Responses must
    pass :func:`repro.resources.base.validate_context_terms` (or a
    function of that name) on every path to a ``put``/``_memory_put``."""

    rule_id = "FLOW001"
    severity = Severity.ERROR
    summary = "resource responses must be validated before cache writes"
    hint = (
        "wrap the response: validate_context_terms(...) normalizes to an "
        "immutable tuple of clean strings before the value is cached"
    )
    scopes = ("repro.resources", "repro.db")
    requires_project: ClassVar[bool] = True
    family_description = "data-flow (taint) invariants"

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        engine = TaintEngine(project, FLOW001_SPEC)
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not self.applies_to(info.module):
                continue
            ctx = project.context_for(info)
            for hit in engine.analyze_function(info):
                sink = ast.unparse(hit.node.func)
                yield self.finding(
                    ctx,
                    hit.node,
                    f"unvalidated resource response from {hit.source_label} "
                    f"reaches cache write {sink}()",
                )


# ---------------------------------------------------------------------------
# FLOW002 — no silent exception swallow in resource/db degrade paths
# ---------------------------------------------------------------------------

#: Attribute calls that count as structured logging.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical"}
)


class SilentSwallowRule(Rule):
    """FLOW002: the resilience design degrades, it never loses
    information — a caught exception must be re-raised, logged through
    the observability layer, recorded for later handling, or converted
    into an explicit degrade event.  An ``except: pass`` in a resource
    or cache path turns an outage into silently-wrong results."""

    rule_id = "FLOW002"
    severity = Severity.ERROR
    summary = "caught exceptions must be re-raised, logged, or degraded"
    hint = (
        "re-raise, call log.warning/error(...), self._degrade(exc), or "
        "store the exception for the caller; never swallow silently"
    )
    scopes = ("repro.resources", "repro.db")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._handler_is_accounted(node):
                continue
            caught = ast.unparse(node.type) if node.type is not None else "everything"
            yield self.finding(
                ctx,
                node,
                f"handler for {caught} swallows the exception silently "
                "(no re-raise, log, or degrade on any path)",
            )

    @classmethod
    def _handler_is_accounted(cls, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in cls._walk_handler(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in _LOG_METHODS:
                        return True
                    if "degrade" in func.attr.lower():
                        return True
                elif isinstance(func, ast.Name) and "degrade" in func.id.lower():
                    return True
            if bound is not None and isinstance(node, ast.Assign):
                # ``last_error = exc``: captured for later handling.
                if any(
                    isinstance(ref, ast.Name) and ref.id == bound
                    for ref in ast.walk(node.value)
                ):
                    return True
        return False

    @staticmethod
    def _walk_handler(handler: ast.ExceptHandler) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# DET002 — unordered iteration feeding ordered output (data-flow form)
# ---------------------------------------------------------------------------

#: Set-combining methods whose result is itself unordered.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Loop-body operations whose result depends on iteration order.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"append", "extend", "insert", "write", "writelines", "appendleft"}
)

#: Ordered-container conversions that freeze iteration order.
_ORDERING_CONVERSIONS = frozenset({"list", "tuple"})

#: Consumers whose result cannot depend on iteration order.
_ORDER_SAFE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "set", "frozenset"}
)


class UnorderedIterationRule(Rule):
    """DET002: iterating a ``set`` (hash order, varies with
    PYTHONHASHSEED) or a bare dict view and feeding the result into
    ordered output breaks byte-stability.  This data-flow version
    tracks unordered-ness through assignments with reaching
    definitions, so ``s = sorted(s)`` launders the taint on every path
    that rebinds it, aliases (``t = s``) stay tainted, and a ``for``
    over a set whose body never produces ordered output is clean."""

    rule_id = "DET002"
    severity = Severity.WARNING
    summary = "no unordered set/dict-view iteration feeding ordered output"
    hint = (
        "wrap the iterable in sorted(...), or add '# order: <reason>' "
        "on (or above) the line when insertion order is provably stable"
    )
    scopes = ("repro.core",)
    family_description = "determinism"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_scope(ctx, CFG.from_statements(ctx.tree.body), None)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, CFG.from_function(node), node)

    # -- per-scope analysis ------------------------------------------------------

    def _check_scope(
        self,
        ctx: ModuleContext,
        cfg: CFG,
        func: "ast.FunctionDef | ast.AsyncFunctionDef | None",
    ) -> Iterator[Finding]:
        rd = ReachingDefinitions(cfg)
        unordered = self._unordered_definitions(rd)

        for block_id, stmt in rd.iter_statements():
            env = None  # computed lazily per statement

            def is_unordered(expr: ast.AST) -> bool:
                nonlocal env
                if env is None:
                    env = rd.reaching_at(block_id, stmt)
                return self._expr_unordered(expr, env, unordered)

            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                if (
                    is_unordered(stmt.iter)
                    and self._body_is_order_sensitive(stmt.body)
                    and not ctx.has_ordering_comment(stmt.lineno)
                ):
                    yield self._flag(ctx, stmt, stmt.iter)
            for node in self._walk_shallow(stmt):
                if isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    if self._consumer_is_safe(ctx, node):
                        continue
                    for generator in node.generators:
                        if is_unordered(generator.iter) and not ctx.has_ordering_comment(
                            node.lineno
                        ):
                            yield self._flag(ctx, node, generator.iter)
                            break
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERING_CONVERSIONS
                    and len(node.args) == 1
                    and not node.keywords
                ):
                    if (
                        is_unordered(node.args[0])
                        and not self._consumer_is_safe(ctx, node)
                        and not ctx.has_ordering_comment(node.lineno)
                    ):
                        yield self._flag(ctx, node, node.args[0])
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                ):
                    if is_unordered(node.args[0]) and not ctx.has_ordering_comment(
                        node.lineno
                    ):
                        yield self._flag(ctx, node, node.args[0])

    def _flag(self, ctx: ModuleContext, site: ast.AST, iterable: ast.AST) -> Finding:
        return self.finding(
            ctx,
            site,
            "iteration order of an unordered collection leaks into "
            f"ordered output ({ast.unparse(iterable)})",
        )

    # -- unordered-ness classification -------------------------------------------

    def _unordered_definitions(self, rd: ReachingDefinitions) -> "set[Definition]":
        """Fixed point over definitions whose bound value is an
        unordered collection at the point of binding."""
        entries: list[tuple[Definition, dict[str, list[Definition]]]] = []
        for block_id, stmt in rd.iter_statements():
            indices = rd.indices_for(block_id, stmt)
            if not indices:
                continue
            env = rd.reaching_at(block_id, stmt)
            for index in indices:
                entries.append((rd.definition(index), env))
        unordered: set[Definition] = set()
        changed = True
        while changed:
            changed = False
            for definition, env in entries:
                if definition in unordered:
                    continue
                if self._definition_unordered(definition, env, unordered):
                    unordered.add(definition)
                    changed = True
        return unordered

    def _definition_unordered(
        self,
        definition: Definition,
        env: "dict[str, list[Definition]]",
        unordered: "set[Definition]",
    ) -> bool:
        node = definition.node
        if isinstance(node, ast.AnnAssign):
            annotation = ast.unparse(node.annotation).split("[", 1)[0]
            if annotation in ("set", "frozenset", "Set", "FrozenSet"):
                return True
        if definition.value is None:
            return False
        if isinstance(node, ast.AugAssign):
            # ``s |= {...}`` / ``s += xs`` keeps the old character.
            if any(
                prior in unordered for prior in env.get(definition.name, [])
            ):
                return True
        return self._expr_unordered(definition.value, env, unordered)

    def _expr_unordered(
        self,
        node: ast.AST,
        env: "dict[str, list[Definition]]",
        unordered: "set[Definition]",
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(
                definition in unordered for definition in env.get(node.id, [])
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._expr_unordered(node.left, env, unordered) or (
                self._expr_unordered(node.right, env, unordered)
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in ("keys", "values")
                    and not node.args
                    and not node.keywords
                ):
                    return True
                if func.attr in _SET_METHODS and self._expr_unordered(
                    func.value, env, unordered
                ):
                    return True
        return False

    # -- consumers and loop bodies -----------------------------------------------

    def _consumer_is_safe(self, ctx: ModuleContext, node: ast.AST) -> bool:
        parent = ctx.parent(node)
        if parent is None:
            # Synthetic CFG wrapper (e.g. an if-test Expr) — find the
            # real parent through the original tree is impossible here;
            # treat as unsafe, the ordering comment remains available.
            return False
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_SAFE_CONSUMERS
        )

    @classmethod
    def _body_is_order_sensitive(cls, body: "list[ast.stmt]") -> bool:
        for stmt in body:
            for node in pruned_walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_CALLS
                ):
                    return True
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(
                        isinstance(target, ast.Subscript) for target in targets
                    ):
                        return True
                    if isinstance(node, ast.AugAssign):
                        return True
        return False

    @staticmethod
    def _walk_shallow(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expressions of one statement without descending into nested
        function bodies or compound-statement bodies (those appear as
        their own CFG statements)."""
        for root in shallow_expressions(stmt):
            yield from pruned_walk(root)
