"""Concurrency- and lifecycle-aware rules.

========  ==============================================================
ASYNC001  blocking call reachable from a coroutine — written in it or
          any number of synchronous calls below it — without an
          executor/thread hop
LEAK001   acquired resource (connection/file/socket/executor/temp
          file) not closed on some CFG path, exception edges included
RACE002   shared mutable instance attribute reached from both the
          asyncio event loop and worker-thread call paths without a
          lock
========  ==============================================================

ASYNC001 and RACE002 need the kind-aware call graph
(:class:`~repro.devtools.project.ProjectModel.call_edges`) and register
as **project rules**; LEAK001 is per-module.  The interprocedural rules
attach a :class:`~repro.devtools.findings.TraceStep` chain so SARIF
consumers render the whole path (``codeFlows``), not just the endpoint.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import replace
from typing import ClassVar

from .context import ModuleContext
from .findings import Finding, Severity, TraceStep
from .lifecycle import Leak, LifecycleAnalysis
from .project import EDGE_DIRECT, FunctionInfo, ProjectModel
from .rules import Rule

# ---------------------------------------------------------------------------
# ASYNC001 — blocking call transitively reachable from a coroutine
# ---------------------------------------------------------------------------

#: Blocking calls the event loop must never make.  ``open`` is
#: deliberately absent: flagging every config read at startup would
#: drown the real findings.
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "sleeps on the event loop",
    "sqlite3.connect": "opens a database connection on the event loop",
    "urllib.request.urlopen": "does synchronous network I/O",
    "urllib.request.urlretrieve": "does synchronous network I/O",
    "socket.create_connection": "does synchronous network I/O",
    "subprocess.run": "waits on a child process",
    "subprocess.call": "waits on a child process",
    "subprocess.check_call": "waits on a child process",
    "subprocess.check_output": "waits on a child process",
    "os.system": "waits on a shell",
}


def _walk_same_context(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested defs.

    Nested ``async def``s are analyzed as coroutines of their own;
    nested sync ``def``s run wherever they are dispatched to, so their
    bodies are not part of the enclosing function's execution.
    """
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _walk_same_context(child)


def _short(qualname: str) -> str:
    """Last two dotted components — readable in one-line messages."""
    return ".".join(qualname.rsplit(".", 2)[-2:])


class TransitiveBlockingCallRule(Rule):
    """ASYNC001: one event loop serves every request; a blocking call
    stalls them all no matter how many synchronous helpers deep it
    hides.  This rule walks the kind-aware call graph from every
    ``async def``, following only *direct* edges — an executor or
    thread dispatch (``run_in_executor``/``to_thread``/``submit``/
    ``threading.Thread``/``run_in_thread``) legitimately moves the work
    off-loop and ends the traversal.  A blocking call written directly
    inside the coroutine is the depth-0 case of the same walk."""

    rule_id = "ASYNC001"
    severity = Severity.ERROR
    summary = "no blocking call transitively reachable from a coroutine"
    hint = (
        "dispatch the blocking helper through the executor: await "
        "asyncio.wait_for(loop.run_in_executor(None, fn), timeout) — or "
        "make the whole chain async"
    )
    requires_project: ClassVar[bool] = True
    family_description = "asyncio/event-loop safety"

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        roots = project.async_functions()
        if not roots:
            return
        paths = project.reachable_via(roots, kinds=(EDGE_DIRECT,))
        reported: set[tuple[str, int, int]] = set()
        for qualname in sorted(paths):
            info = project.functions[qualname]
            if not self.applies_to(info.module):
                continue
            ctx = project.context_for(info)
            for node in _walk_same_context(info.node):
                if not isinstance(node, ast.Call):
                    continue
                qualified = ctx.resolve(node.func)
                reason = _BLOCKING_CALLS.get(qualified or "")
                if reason is None:
                    continue
                key = (ctx.path, node.lineno, node.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                chain = paths[qualname]
                yield replace(
                    self.finding(
                        ctx,
                        node,
                        f"{qualified}() {reason}; it runs on the event loop "
                        f"because coroutine {_short(chain[0])!r} reaches it "
                        f"via {' -> '.join(_short(q) for q in chain)} with "
                        "no executor hop",
                    ),
                    trace=self._trace(project, chain, ctx.path, node, qualified),
                )

    @staticmethod
    def _trace(
        project: ProjectModel,
        chain: "tuple[str, ...]",
        blocking_path: str,
        blocking_node: ast.Call,
        qualified: "str | None",
    ) -> "tuple[TraceStep, ...]":
        steps: list[TraceStep] = []
        root_info = project.functions[chain[0]]
        steps.append(
            TraceStep(
                path=project.context_for(root_info).path,
                line=root_info.node.lineno,
                message=f"coroutine {_short(chain[0])} runs on the event loop",
            )
        )
        for caller, callee in zip(chain, chain[1:]):
            edge_line = next(
                (
                    edge.line
                    for edge in project.call_edges(caller)
                    if edge.callee == callee and edge.kind == EDGE_DIRECT
                ),
                project.functions[caller].node.lineno,
            )
            steps.append(
                TraceStep(
                    path=project.context_for(project.functions[caller]).path,
                    line=edge_line,
                    message=f"{_short(caller)} calls {_short(callee)}",
                )
            )
        steps.append(
            TraceStep(
                path=blocking_path,
                line=blocking_node.lineno,
                message=f"{qualified}() blocks the event loop",
            )
        )
        return tuple(steps)


# ---------------------------------------------------------------------------
# LEAK001 — resource not closed on every path
# ---------------------------------------------------------------------------


class ResourceLeakRule(Rule):
    """LEAK001: the must-close analysis
    (:mod:`repro.devtools.lifecycle`).  A connection, socket, executor,
    or temp file acquired in a function must be released on *every* CFG
    path out of it — including the exception edges — unless ownership
    escapes (returned, stored on ``self``, passed along).  An
    exception-path leak is a slow file-descriptor exhaustion that no
    functional test catches."""

    rule_id = "LEAK001"
    severity = Severity.ERROR
    summary = "acquired resources must be closed on every path"
    hint = (
        "wrap the acquisition in 'with' (or contextlib.closing for "
        "sqlite3), or close it in a 'finally:' — exception paths leak "
        "it otherwise"
    )
    family_description = "resource lifecycle (must-close)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        bodies = [ctx.tree.body] + [
            node.body
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for body in bodies:
            for leak in LifecycleAnalysis(body, ctx.resolve).leaks():
                yield self._render(ctx, leak)

    def _render(self, ctx: ModuleContext, leak: Leak) -> Finding:
        if leak.closed_somewhere:
            detail = (
                "is closed on some paths but leaks on others (an "
                "exception or early return skips the close)"
            )
        else:
            detail = "is never closed on any path"
        return self.finding(
            ctx, leak.site.node, f"{leak.site.spec.label} acquired here {detail}"
        )


# ---------------------------------------------------------------------------
# RACE002 — shared attribute reached from loop and worker-thread paths
# ---------------------------------------------------------------------------

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)


def _mutable_kind(node: ast.AST) -> str | None:
    """What fresh mutable container ``node`` builds, if any."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "a list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray")
    ):
        return f"a {node.func.id}"
    return None


class LoopThreadSharedAttrRule(Rule):
    """RACE002: the serving stack runs coroutines on the loop thread
    and query builders on executor threads; an instance attribute
    holding a list/dict/set that one side mutates while the other reads
    is a data race no asyncio guarantee covers (only *loop-internal*
    state is single-threaded).  This rule walks both call-path sides of
    the kind-aware call graph and flags unlocked mutations of shared
    ``self.*`` containers."""

    rule_id = "RACE002"
    severity = Severity.ERROR
    summary = "no unlocked shared-attribute mutation across loop/thread paths"
    hint = (
        "hold the object's lock around the mutation (with self._lock:), "
        "or confine the container to one side of the executor boundary"
    )
    excludes = ("repro.devtools",)
    requires_project: ClassVar[bool] = True
    family_description = "shared-state safety"

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        loop_paths = project.reachable_via(
            project.async_functions(), kinds=(EDGE_DIRECT,)
        )
        thread_paths = project.reachable_via(
            sorted(project.dispatch_targets()), kinds=(EDGE_DIRECT,)
        )
        if not loop_paths or not thread_paths:
            return
        for class_qualname in sorted(project.classes):
            cls_info = project.classes[class_qualname]
            if not self.applies_to(cls_info.module):
                continue
            mutable_attrs = self._mutable_attrs(cls_info)
            if not mutable_attrs:
                continue
            yield from self._check_class(
                project, cls_info, mutable_attrs, loop_paths, thread_paths
            )

    @staticmethod
    def _mutable_attrs(cls_info) -> "dict[str, str]":
        """attr name → kind for ``self.x = <mutable>`` in ``__init__``."""
        init = cls_info.methods.get("__init__")
        if init is None:
            return {}
        attrs: dict[str, str] = {}
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            kind = _mutable_kind(node.value)
            if kind is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs[target.attr] = kind
        return attrs

    def _check_class(
        self,
        project: ProjectModel,
        cls_info,
        mutable_attrs: "dict[str, str]",
        loop_paths: "dict[str, tuple[str, ...]]",
        thread_paths: "dict[str, tuple[str, ...]]",
    ) -> Iterator[Finding]:
        # attr → side → list of (method info, node, is_mutation, locked)
        accesses: dict[str, dict[str, list]] = {}
        for name in sorted(cls_info.methods):
            if name == "__init__":
                continue
            info = cls_info.methods[name]
            sides = []
            if info.qualname in loop_paths:
                sides.append("loop")
            if info.qualname in thread_paths:
                sides.append("thread")
            if not sides:
                continue
            ctx = project.context_for(info)
            for node, attr, is_mutation in self._attr_accesses(info, mutable_attrs):
                locked = self._under_lock(ctx, node)
                for side in sides:
                    accesses.setdefault(attr, {}).setdefault(side, []).append(
                        (info, node, is_mutation, locked)
                    )
        for attr in sorted(accesses):
            by_side = accesses[attr]
            if "loop" not in by_side or "thread" not in by_side:
                continue
            reported: set[tuple[str, int]] = set()
            for side, other in (("loop", "thread"), ("thread", "loop")):
                for info, node, is_mutation, locked in by_side[side]:
                    if not is_mutation or locked:
                        continue
                    ctx = project.context_for(info)
                    key = (ctx.path, node.lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    root_path = (
                        loop_paths if side == "loop" else thread_paths
                    )[info.qualname]
                    other_info = by_side[other][0][0]
                    other_root = (
                        loop_paths if other == "loop" else thread_paths
                    )[other_info.qualname]
                    yield replace(
                        self.finding(
                            ctx,
                            node,
                            f"{mutable_attrs[attr]} self.{attr} is mutated "
                            f"without a lock on the {side} path (via "
                            f"{_short(root_path[0])}) while the {other} path "
                            f"(via {_short(other_root[0])}) also reaches it",
                        ),
                        trace=self._trace(
                            project, root_path, other_root, other_info
                        ),
                    )

    @staticmethod
    def _trace(
        project: ProjectModel,
        path_a: "tuple[str, ...]",
        path_b: "tuple[str, ...]",
        other_info: FunctionInfo,
    ) -> "tuple[TraceStep, ...]":
        steps: list[TraceStep] = []
        for label, chain in (("this side", path_a), ("other side", path_b)):
            for qualname in chain:
                info = project.functions[qualname]
                steps.append(
                    TraceStep(
                        path=project.context_for(info).path,
                        line=info.node.lineno,
                        message=f"{label}: {_short(qualname)}",
                    )
                )
        return tuple(steps)

    @staticmethod
    def _attr_accesses(
        info: FunctionInfo, mutable_attrs: "dict[str, str]"
    ) -> "list[tuple[ast.AST, str, bool]]":
        """(node, attr, is_mutation) for every ``self.<attr>`` touch."""

        def self_attr(node: ast.AST) -> "str | None":
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in mutable_attrs
            ):
                return node.attr
            return None

        out: list[tuple[ast.AST, str, bool]] = []
        mutated: set[int] = set()
        for node in ast.walk(info.node):
            receivers: list[ast.AST] = []
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                receivers = [node.func.value]
            elif isinstance(node, ast.Assign):
                receivers = node.targets
            elif isinstance(node, ast.AugAssign):
                receivers = [node.target]
            for receiver in receivers:
                if isinstance(node, (ast.Assign, ast.AugAssign)) and isinstance(
                    receiver, ast.Subscript
                ):
                    receiver = receiver.value
                attr = self_attr(receiver)
                if attr is not None:
                    out.append((node, attr, True))
                    mutated.add(id(receiver))
                    break
        for node in ast.walk(info.node):
            attr = self_attr(node)
            if attr is not None and id(node) not in mutated:
                out.append((node, attr, False))
        return out

    @staticmethod
    def _under_lock(ctx: ModuleContext, node: ast.AST) -> bool:
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, (ast.With, ast.AsyncWith)):
                for item in current.items:
                    try:
                        rendered = ast.unparse(item.context_expr)
                    except Exception:  # pragma: no cover
                        continue
                    if "lock" in rendered.lower():
                        return True
            current = ctx.parent(current)
        return False
