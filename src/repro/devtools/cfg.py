"""Intra-procedural control-flow graphs over Python ASTs.

DET002, the FLOW001 taint engine and the LEAK001 must-close analysis
reason about *paths*, not just syntax: "does a definition written in
one branch reach this loop?", "is this handle closed on every path out,
exception edges included?".  This module builds the classic basic-block
CFG those questions are answered on.

The graph is deliberately statement-granular and conservative:

* every simple statement is appended to the current block; compound
  statements (``if``/``for``/``while``/``try``/``with``/``match``)
  split blocks and wire branch/loop/back edges;
* ``return``/``raise`` edges go to the synthetic **exit** block,
  ``break``/``continue`` to the innermost loop's after/header blocks;
* a ``try`` body may raise anywhere, so every block the body creates is
  wired to every handler (and to the ``finally`` suite) — the standard
  over-approximation that keeps the analysis sound for reaching
  definitions and the must-close lattice alike;
* nested function/class definitions are treated as opaque single
  statements (their bodies are separate CFGs built on demand).

Nothing here executes the analyzed code; the input is a parsed
:mod:`ast` function (or a module body wrapped via
:meth:`CFG.from_statements`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["BasicBlock", "CFG"]


@dataclass
class BasicBlock:
    """A maximal straight-line run of statements."""

    block_id: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(stmt).__name__ for stmt in self.statements)
        return f"<block {self.block_id} [{kinds}] -> {self.successors}>"


class CFG:
    """Control-flow graph of one function body (or module body).

    Blocks are numbered in construction order; block 0 is the entry and
    :attr:`exit_id` is the synthetic exit every ``return``/``raise``
    and fall-through path reaches.
    """

    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self.entry_id = self._new_block().block_id
        self.exit_id = self._new_block().block_id
        #: (break targets, continue targets) stack during construction.
        self._loops: list[tuple[int, int]] = []
        #: entry blocks of pending ``finally`` suites; ``return``/``raise``
        #: inside a try-with-finally route through the innermost one.
        self._finals: list[int] = []

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_function(cls, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> "CFG":
        return cls.from_statements(node.body)

    @classmethod
    def from_statements(cls, body: list[ast.stmt]) -> "CFG":
        cfg = cls()
        last = cfg._build(body, cfg.entry_id)
        if last is not None:
            cfg._edge(last, cfg.exit_id)
        return cfg

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(block_id=len(self.blocks))
        self.blocks[block.block_id] = block
        return block

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].successors:
            self.blocks[src].successors.append(dst)
            self.blocks[dst].predecessors.append(src)

    def _build(self, body: list[ast.stmt], current: "int | None") -> "int | None":
        """Append ``body`` after block ``current``; return the open block
        control falls out of, or None when every path terminated."""
        for stmt in body:
            if current is None:
                # Unreachable code after return/raise/break; keep it in a
                # dangling block so its definitions still parse, but give
                # it no predecessors.
                current = self._new_block().block_id
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: ast.stmt, current: int) -> "int | None":
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._build_loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.blocks[current].statements.append(stmt)
            return self._build(stmt.body, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.blocks[current].statements.append(stmt)
            # A pending finally runs before the function actually exits.
            target = self._finals[-1] if self._finals else self.exit_id
            self._edge(current, target)
            return None
        if isinstance(stmt, ast.Break):
            self.blocks[current].statements.append(stmt)
            if self._loops:
                self._edge(current, self._loops[-1][0])
            return None
        if isinstance(stmt, ast.Continue):
            self.blocks[current].statements.append(stmt)
            if self._loops:
                self._edge(current, self._loops[-1][1])
            return None
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            return self._build_match(stmt, current)
        # Simple statement (incl. nested def/class treated opaquely).
        self.blocks[current].statements.append(stmt)
        return current

    def _build_if(self, stmt: ast.If, current: int) -> "int | None":
        # The test expression evaluates in the current block.
        self.blocks[current].statements.append(
            ast.Expr(value=stmt.test, lineno=stmt.lineno, col_offset=stmt.col_offset)
        )
        after: "int | None" = None
        then_entry = self._new_block().block_id
        self._edge(current, then_entry)
        then_exit = self._build(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self._new_block().block_id
            self._edge(current, else_entry)
            else_exit = self._build(stmt.orelse, else_entry)
        else:
            else_exit = current
        if then_exit is None and else_exit is None:
            return None
        after = self._new_block().block_id
        if then_exit is not None:
            self._edge(then_exit, after)
        if else_exit is not None:
            self._edge(else_exit, after)
        return after

    def _build_loop(
        self, stmt: "ast.For | ast.AsyncFor | ast.While", current: int
    ) -> int:
        header = self._new_block().block_id
        self._edge(current, header)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # The iteration target is (re)defined at the header on every trip.
            self.blocks[header].statements.append(stmt)
        else:
            self.blocks[header].statements.append(
                ast.Expr(
                    value=stmt.test, lineno=stmt.lineno, col_offset=stmt.col_offset
                )
            )
        after = self._new_block().block_id
        self._edge(header, after)  # zero-trip path
        self._loops.append((after, header))
        body_entry = self._new_block().block_id
        self._edge(header, body_entry)
        body_exit = self._build(stmt.body, body_entry)
        if body_exit is not None:
            self._edge(body_exit, header)  # back edge
        self._loops.pop()
        if stmt.orelse:
            return self._build(stmt.orelse, after) or after
        return after

    def _build_try(self, stmt: ast.Try, current: int) -> "int | None":
        final_entry: "int | None" = None
        if stmt.finalbody:
            # Created up front so return/raise inside the region can be
            # routed through it while the body and handlers are built.
            final_entry = self._new_block().block_id
            self._finals.append(final_entry)
        body_entry = self._new_block().block_id
        self._edge(current, body_entry)
        # Any statement in the body may raise: conservatively wire *every*
        # block the body creates (entry, mid-body branches, and the body
        # exit) to every handler, so state acquired part-way through the
        # body reaches the exception paths.
        handler_entries: list[int] = []
        for handler in stmt.handlers:
            handler_entries.append(self._new_block().block_id)
        first_body_block = len(self.blocks)
        body_exit = self._build(stmt.body, body_entry)
        raising = [body_entry, *range(first_body_block, len(self.blocks))]
        for entry in handler_entries:
            for src in raising:
                self._edge(src, entry)
            if body_exit is not None:
                self._edge(body_exit, entry)
        exits: list[int] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_exit = self._build(handler.body, entry)
            if handler_exit is not None:
                exits.append(handler_exit)
        if stmt.orelse and body_exit is not None:
            body_exit = self._build(stmt.orelse, body_exit)
        if body_exit is not None:
            exits.append(body_exit)
        if stmt.finalbody:
            self._finals.pop()
            for exit_block in exits:
                self._edge(exit_block, final_entry)
            # The exceptional path (unmatched exception type, or a raise
            # mid-body with no handlers) still runs the finally suite.
            for src in raising:
                self._edge(src, final_entry)
            final_exit = self._build(stmt.finalbody, final_entry)
            if final_exit is not None:
                # Abnormal entries (return, propagating raise) continue
                # from the finally straight to the function exit.
                self._edge(final_exit, self.exit_id)
            return final_exit
        if not exits:
            return None
        after = self._new_block().block_id
        for exit_block in exits:
            self._edge(exit_block, after)
        return after

    def _build_match(self, stmt: "ast.Match", current: int) -> "int | None":
        self.blocks[current].statements.append(
            ast.Expr(
                value=stmt.subject, lineno=stmt.lineno, col_offset=stmt.col_offset
            )
        )
        exits: list[int] = []
        for case in stmt.cases:
            entry = self._new_block().block_id
            self._edge(current, entry)
            case_exit = self._build(case.body, entry)
            if case_exit is not None:
                exits.append(case_exit)
        exits.append(current)  # no case may match
        after = self._new_block().block_id
        for exit_block in exits:
            self._edge(exit_block, after)
        return after

    # -- traversal helpers ------------------------------------------------------

    def reverse_postorder(self) -> list[int]:
        """Block ids in reverse postorder from the entry (good worklist
        order for forward data-flow problems)."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(block_id: int) -> None:
            stack = [(block_id, iter(self.blocks[block_id].successors))]
            seen.add(block_id)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(self.blocks[nxt].successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry_id)
        for block_id in self.blocks:
            if block_id not in seen:
                visit(block_id)
        return list(reversed(order))
