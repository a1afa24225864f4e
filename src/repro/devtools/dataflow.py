"""Forward data-flow analyses over :mod:`repro.devtools.cfg` graphs.

Two layers live here:

* a tiny generic **forward fixed-point solver** over any abstract
  domain (:func:`solve_forward_env`);
* **reaching definitions** built on it: for every statement, which
  definitions of each local name may still be live when the statement
  executes.  This is what lets the flow rules answer "was this variable
  rebound through ``sorted(...)`` on *every* path before the loop?" or
  "does the raw response from ``_query`` reach this ``put`` call?".

A *definition* is any syntactic binding: assignment (plain, annotated,
augmented, walrus), a ``for`` target, a ``with ... as`` name, or an
``import``.  Compound statements are handled **shallowly** — a ``for``
appearing in a loop-header block defines its target and uses its
iterable, but its body belongs to other blocks and is not re-walked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .cfg import CFG

__all__ = [
    "Definition",
    "ReachingDefinitions",
    "pruned_walk",
    "solve_forward_env",
]

#: Node types whose subtrees are separate scopes for most analyses.
_DEFAULT_PRUNE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def pruned_walk(root: ast.AST, prune: "tuple[type, ...]" = _DEFAULT_PRUNE):
    """Yield ``root`` and descendants, *pruning* subtrees rooted at the
    given node types (unlike ``ast.walk``, which always descends)."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, prune):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def shallow_expressions(stmt: ast.stmt) -> "list[ast.AST]":
    """Expression roots belonging to ``stmt`` itself when it sits in a
    CFG block — compound bodies are separate statements and excluded."""
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(stmt, (ast.If, ast.While, ast.Try)):
        return []  # tests are wrapped as their own Expr statements
    return [stmt]


@dataclass(frozen=True)
class Definition:
    """One binding of ``name`` produced by ``node`` (value may be None
    for bindings with no usable right-hand side, e.g. imports)."""

    name: str
    node: ast.AST
    value: "ast.expr | None"

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


def solve_forward_env(
    cfg: CFG,
    transfer,
    join,
    initial,
) -> "tuple[dict[int, object], dict[int, object]]":
    """Forward fixed point for arbitrary (non-set) abstract domains.

    ``transfer(block_id, in_state) -> out_state`` interprets one block;
    ``join(states) -> state`` merges the predecessors' out-states (it is
    given a non-empty list); ``initial`` is the entry in-state *and* the
    bottom state for blocks with no predecessors.  States must be
    hashable-free value objects compared with ``==``; the solver
    iterates in reverse postorder until nothing changes.  Used by
    reaching definitions (sets of definition indices), by the
    must-close lattice in :mod:`repro.devtools.lifecycle` and by the
    taint environments of :mod:`repro.devtools.taint`.
    """
    order = cfg.reverse_postorder()
    in_states: dict[int, object] = {b: initial for b in cfg.blocks}
    out_states: dict[int, object] = {
        b: transfer(b, initial) for b in cfg.blocks
    }
    changed = True
    while changed:
        changed = False
        for block_id in order:
            preds = cfg.blocks[block_id].predecessors
            if preds:
                incoming = join([out_states[p] for p in preds])
            else:
                incoming = initial
            if incoming == in_states[block_id]:
                continue
            in_states[block_id] = incoming
            outgoing = transfer(block_id, incoming)
            if outgoing != out_states[block_id]:
                out_states[block_id] = outgoing
            changed = True
    return in_states, out_states


# -- definition extraction ----------------------------------------------------------


def _target_names(target: ast.expr) -> "list[str]":
    """Plain names bound by an assignment target (tuples unpacked;
    attribute/subscript stores are not local bindings)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def statement_definitions(stmt: ast.stmt) -> "list[Definition]":
    """Shallow definitions produced directly by one statement."""
    defs: list[Definition] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for name in _target_names(target):
                defs.append(Definition(name, stmt, stmt.value))
    elif isinstance(stmt, ast.AnnAssign):
        for name in _target_names(stmt.target):
            defs.append(Definition(name, stmt, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        for name in _target_names(stmt.target):
            # x += e keeps x's old character and mixes in e; record the
            # augmentation with the old value as part of the node.
            defs.append(Definition(name, stmt, stmt.value))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _target_names(stmt.target):
            defs.append(Definition(name, stmt, None))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    defs.append(Definition(name, stmt, None))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            if bound != "*":
                defs.append(Definition(bound, stmt, None))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs.append(Definition(stmt.name, stmt, None))
    elif isinstance(stmt, ast.Expr):
        pass  # walrus handled below for all statements
    # Walrus targets in the statement's *own* expressions — compound
    # bodies are separate CFG statements and must not be re-walked.
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        walrus_roots: list[ast.AST] = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        walrus_roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        walrus_roots = []
    elif isinstance(stmt, (ast.If, ast.While, ast.Try)):
        walrus_roots = []  # tests are wrapped as their own Expr statements
    else:
        walrus_roots = [stmt]
    for root in walrus_roots:
        for node in pruned_walk(root):
            if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                defs.append(Definition(node.target.id, node, node.value))
    return defs


# -- reaching definitions -----------------------------------------------------------


class ReachingDefinitions:
    """Reaching definitions for one function (or module) body.

    Definitions are interned per ``(statement, name)``; the API answers
    "which definitions of ``name`` may reach this statement?" at
    statement granularity by replaying each block linearly from its
    solved in-set.
    """

    def __init__(self, cfg: CFG, parameters: "list[str] | None" = None) -> None:
        self.cfg = cfg
        self._defs: list[Definition] = []
        self._param_defs: dict[str, int] = {}
        # Collect per-block, per-statement definitions.
        self._block_defs: dict[int, list[tuple[ast.stmt, list[int]]]] = {}
        by_name: dict[str, list[int]] = {}
        for name in parameters or []:
            index = len(self._defs)
            self._defs.append(Definition(name, ast.arguments(), None))
            self._param_defs[name] = index
            by_name.setdefault(name, []).append(index)
        for block_id, block in cfg.blocks.items():
            rows: list[tuple[ast.stmt, list[int]]] = []
            for stmt in block.statements:
                indices: list[int] = []
                for definition in statement_definitions(stmt):
                    index = len(self._defs)
                    self._defs.append(definition)
                    by_name.setdefault(definition.name, []).append(index)
                    indices.append(index)
                rows.append((stmt, indices))
            self._block_defs[block_id] = rows
        self._by_name = {name: frozenset(ids) for name, ids in by_name.items()}
        # gen/kill per block: last definition of each name wins.
        gen: dict[int, frozenset] = {}
        kill: dict[int, frozenset] = {}
        for block_id, rows in self._block_defs.items():
            latest: dict[str, int] = {}
            killed: set[int] = set()
            for _stmt, indices in rows:
                for index in indices:
                    name = self._defs[index].name
                    killed |= set(self._by_name.get(name, frozenset()))
                    latest[name] = index
            gen[block_id] = frozenset(latest.values())
            kill[block_id] = frozenset(killed - set(latest.values()))
        # Parameters reach from the entry block.
        if self._param_defs:
            entry = cfg.entry_id
            gen[entry] = gen[entry] | frozenset(
                index
                for name, index in self._param_defs.items()
                if not any(
                    self._defs[i].name == name for i in gen[entry]
                )
            )
        self.block_in, self.block_out = solve_forward_env(
            cfg,
            lambda block_id, incoming: gen[block_id] | (incoming - kill[block_id]),
            lambda states: frozenset().union(*states),
            frozenset(),
        )

    def definition(self, index: int) -> Definition:
        return self._defs[index]

    def reaching_at(self, block_id: int, stmt: ast.stmt) -> "dict[str, list[Definition]]":
        """Definitions live immediately *before* ``stmt`` in ``block_id``."""
        alive: set[int] = set(self.block_in.get(block_id, frozenset()))
        if block_id == self.cfg.entry_id:
            # Parameters are live from function entry; the replay below
            # kills them at their first shadowing assignment.
            alive |= set(self._param_defs.values())
        for candidate, indices in self._block_defs.get(block_id, []):
            if candidate is stmt:
                break
            for index in indices:
                name = self._defs[index].name
                alive -= set(self._by_name.get(name, frozenset()))
                alive.add(index)
        result: dict[str, list[Definition]] = {}
        for index in alive:
            definition = self._defs[index]
            result.setdefault(definition.name, []).append(definition)
        return result

    def definitions_of(self, name: str) -> "list[Definition]":
        return [self._defs[i] for i in sorted(self._by_name.get(name, frozenset()))]

    def indices_for(self, block_id: int, stmt: ast.stmt) -> "list[int]":
        """Definition indices produced directly by ``stmt``."""
        for candidate, indices in self._block_defs.get(block_id, []):
            if candidate is stmt:
                return indices
        return []

    def iter_statements(self) -> "list[tuple[int, ast.stmt]]":
        """(block_id, statement) pairs in block order."""
        rows: list[tuple[int, ast.stmt]] = []
        for block_id in sorted(self._block_defs):
            for stmt, _indices in self._block_defs[block_id]:
                rows.append((block_id, stmt))
        return rows
