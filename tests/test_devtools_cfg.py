"""CFG construction and reaching-definitions data-flow."""

from __future__ import annotations

import ast

import pytest

from repro.devtools.cfg import CFG
from repro.devtools.dataflow import (
    Definition,
    ReachingDefinitions,
    pruned_walk,
    shallow_expressions,
    statement_definitions,
)


def _cfg_of(source: str) -> CFG:
    tree = ast.parse(source)
    assert isinstance(tree.body[0], ast.FunctionDef)
    return CFG.from_function(tree.body[0])


def _rd_of(source: str, parameters: "list[str] | None" = None):
    return ReachingDefinitions(_cfg_of(source), parameters=parameters)


def _defs_at_return(rd: ReachingDefinitions, name: str) -> "list[int]":
    """Line numbers of the definitions of ``name`` reaching the return."""
    for block_id, stmt in rd.iter_statements():
        if isinstance(stmt, ast.Return):
            env = rd.reaching_at(block_id, stmt)
            return sorted(d.line for d in env.get(name, []))
    raise AssertionError("no return statement found")


# -- CFG shape ----------------------------------------------------------------------


def test_straight_line_is_one_block_between_entry_and_exit():
    cfg = _cfg_of("def f():\n    a = 1\n    b = 2\n    return b\n")
    entry = cfg.blocks[cfg.entry_id]
    assert [type(s).__name__ for s in entry.statements] == [
        "Assign",
        "Assign",
        "Return",
    ]
    assert cfg.exit_id in entry.successors


def test_if_else_branches_rejoin():
    cfg = _cfg_of(
        "def f(c):\n"
        "    if c:\n"
        "        x = 1\n"
        "    else:\n"
        "        x = 2\n"
        "    return x\n"
    )
    entry = cfg.blocks[cfg.entry_id]
    # The test expression stays in the entry block; two branch successors.
    assert len(entry.successors) == 2
    # Both branches converge on the block holding the return.
    return_blocks = [
        b
        for b in cfg.blocks.values()
        if any(isinstance(s, ast.Return) for s in b.statements)
    ]
    assert len(return_blocks) == 1
    assert len(return_blocks[0].predecessors) == 2


def test_loop_has_zero_trip_and_back_edges():
    cfg = _cfg_of(
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:\n"
        "        out.append(x)\n"
        "    return out\n"
    )
    header = next(
        b
        for b in cfg.blocks.values()
        if any(isinstance(s, ast.For) for s in b.statements)
    )
    # Header reaches both the after-loop block and the body.
    assert len(header.successors) == 2
    # Some body block loops back to the header.
    assert any(
        header.block_id in cfg.blocks[s].successors
        for s in header.successors
    )


def test_break_exits_loop_and_continue_returns_to_header():
    cfg = _cfg_of(
        "def f(xs):\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            break\n"
        "        continue\n"
        "    return 1\n"
    )
    header = next(
        b
        for b in cfg.blocks.values()
        if any(isinstance(s, ast.For) for s in b.statements)
    )
    break_block = next(
        b
        for b in cfg.blocks.values()
        if any(isinstance(s, ast.Break) for s in b.statements)
    )
    continue_block = next(
        b
        for b in cfg.blocks.values()
        if any(isinstance(s, ast.Continue) for s in b.statements)
    )
    after = [s for s in header.successors][0]  # zero-trip target
    assert after in break_block.successors
    assert header.block_id in continue_block.successors


def test_try_wires_handlers_from_body_entry():
    cfg = _cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except ValueError:\n"
        "        x = 1\n"
        "    return 2\n"
    )
    # Reverse postorder covers every block exactly once.
    order = cfg.reverse_postorder()
    assert sorted(order) == sorted(cfg.blocks)


def test_return_in_every_branch_leaves_no_fallthrough():
    cfg = _cfg_of(
        "def f(c):\n"
        "    if c:\n"
        "        return 1\n"
        "    else:\n"
        "        return 2\n"
    )
    exit_preds = cfg.blocks[cfg.exit_id].predecessors
    assert len(exit_preds) == 2


# -- walk helpers -------------------------------------------------------------------


def test_pruned_walk_actually_skips_nested_function_bodies():
    outer = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        hidden = {1, 2}\n"
        "    visible = [1]\n"
    ).body[0]
    names: set[str] = set()
    for stmt in outer.body:
        names |= {
            n.id for n in pruned_walk(stmt) if isinstance(n, ast.Name)
        }
    assert "visible" in names
    assert "hidden" not in names


def test_shallow_expressions_excludes_compound_bodies():
    for_stmt = ast.parse("for x in xs:\n    body_call()\n").body[0]
    roots = shallow_expressions(for_stmt)
    rendered = [ast.unparse(r) for r in roots]
    assert "xs" in rendered
    assert all("body_call" not in text for text in rendered)


def test_statement_definitions_cover_binding_forms():
    bindings = {
        "a = 1": ["a"],
        "a, b = pair": ["a", "b"],
        "a: int = 1": ["a"],
        "a += 1": ["a"],
        "import os.path": ["os"],
        "from x import y as z": ["z"],
        "q = (w := 3)": ["q", "w"],
    }
    for source, expected in bindings.items():
        stmt = ast.parse(source).body[0]
        names = sorted(d.name for d in statement_definitions(stmt))
        assert names == sorted(expected), source


# -- reaching definitions -----------------------------------------------------------


def test_branches_merge_both_definitions():
    rd = _rd_of(
        "def f(c):\n"
        "    if c:\n"
        "        x = 1\n"
        "    else:\n"
        "        x = 2\n"
        "    return x\n"
    )
    assert _defs_at_return(rd, "x") == [3, 5]


def test_unconditional_rebind_kills_the_old_definition():
    rd = _rd_of(
        "def f(xs):\n"
        "    s = set(xs)\n"
        "    s = sorted(s)\n"
        "    return s\n"
    )
    assert _defs_at_return(rd, "s") == [3]


def test_partial_rebind_in_branch_keeps_both():
    rd = _rd_of(
        "def f(xs, c):\n"
        "    s = set(xs)\n"
        "    if c:\n"
        "        s = sorted(s)\n"
        "    return s\n"
    )
    assert _defs_at_return(rd, "s") == [2, 4]


def test_loop_body_definition_reaches_after_loop():
    rd = _rd_of(
        "def f(xs):\n"
        "    y = 0\n"
        "    for x in xs:\n"
        "        y = x\n"
        "    return y\n"
    )
    assert _defs_at_return(rd, "y") == [2, 4]


def test_parameters_reach_until_shadowed():
    rd = _rd_of(
        "def f(a, b):\n"
        "    a = 1\n"
        "    return a\n",
        parameters=["a", "b"],
    )
    for block_id, stmt in rd.iter_statements():
        if isinstance(stmt, ast.Return):
            env = rd.reaching_at(block_id, stmt)
            assert [d.line for d in env["a"]] == [2]
            assert [d.line for d in env["b"]] == [0]  # still the parameter
            break
    else:  # pragma: no cover
        pytest.fail("no return found")


def test_definition_records_value_expression():
    rd = _rd_of("def f(xs):\n    s = set(xs)\n    return s\n")
    (definition,) = rd.definitions_of("s")
    assert isinstance(definition, Definition)
    assert isinstance(definition.value, ast.Call)
    assert ast.unparse(definition.value) == "set(xs)"
