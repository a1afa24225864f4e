"""The rule registry and the ``Rule`` base class.

A rule is a class with a ``rule_id``, a severity, optional module
scoping, and a :meth:`Rule.check` generator over one
:class:`~repro.devtools.context.ModuleContext`.  Defining a subclass
registers it:

    class DET999(Rule):
        rule_id = "DET999"
        severity = Severity.ERROR
        summary = "what the invariant is"
        hint = "how to fix a violation"
        scopes = ("repro.core",)

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                if ...:
                    yield self.finding(ctx, node, "message")

Rules come in two flavours:

* **module rules** check one file at a time via :meth:`Rule.check`;
* **project rules** (``requires_project = True``) check the whole
  program via :meth:`Rule.check_project` over a
  :class:`~repro.devtools.project.ProjectModel` — call-graph and
  cross-module taint questions live there.

The ruleset — every rule but SQL001 found a real bug in this tree, and
SQL001 guards the SQL the storage layer is still changing:

=========  ==========================================================
DET002     no unordered iteration feeding ordered output (data-flow)
FLOW001    resource responses validated before cache writes (taint)
FLOW002    no silent exception swallow in resource/db paths
ASYNC001   no blocking call reachable from a coroutine
LEAK001    acquired resources must be closed on every path
RACE002    no unlocked shared-attribute mutation across loop/thread
SQL001     queries must agree with the extracted CREATE TABLE DDL
SCHEMA001  writer/reader key sets of a schema id must agree
CFG002     config fields must be read; getattr reads must exist
=========  ==========================================================

DET002 and the FLOW rules live in :mod:`repro.devtools.flow_rules`,
ASYNC001/LEAK001/RACE002 in :mod:`repro.devtools.concurrency_rules`,
and SQL001/SCHEMA001/CFG002 in :mod:`repro.devtools.contract_rules`,
driven by the contract database :mod:`repro.devtools.contracts`
extracts.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, ClassVar

from .context import ModuleContext
from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import ProjectModel

#: id → rule class; populated by ``Rule.__init_subclass__``.
_REGISTRY: dict[str, type["Rule"]] = {}


def all_rules() -> list["Rule"]:
    """One instance of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def expand_rule_patterns(patterns: "set[str] | frozenset[str]") -> set[str]:
    """Expand ids and globs (``FLOW*``, ``DET00?``) against the registry.

    A pattern matching nothing raises :class:`ValueError`, so typos and
    ids of deleted rules fail loudly instead of silently selecting (or
    ignoring) nothing.
    """
    known = sorted(_REGISTRY)
    selected: set[str] = set()
    for pattern in patterns:
        matched = [rule_id for rule_id in known if fnmatchcase(rule_id, pattern)]
        if not matched:
            raise ValueError(f"unknown rule id or pattern: {pattern}")
        selected.update(matched)
    return selected


class Rule:
    """Base class: subclassing with a ``rule_id`` self-registers."""

    rule_id: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = ""
    hint: ClassVar[str] = ""
    #: One-line description of the rule's family (the id prefix), shown
    #: as the group header by ``--list-rules``.  Families are discovered
    #: from the registry, so a new family self-registers its header by
    #: setting this on any member rule.
    family_description: ClassVar[str] = ""
    #: Dotted module prefixes the rule applies to; empty = everywhere.
    scopes: ClassVar[tuple[str, ...]] = ()
    #: Dotted module prefixes the rule never applies to.
    excludes: ClassVar[tuple[str, ...]] = ()
    #: Project rules analyze the whole program (call graph, taint)
    #: through :meth:`check_project` instead of per-module ``check``.
    requires_project: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.rule_id:
            existing = _REGISTRY.get(cls.rule_id)
            if existing is not None and existing is not cls:
                raise ValueError(f"duplicate rule id: {cls.rule_id}")
            _REGISTRY[cls.rule_id] = cls

    @staticmethod
    def _in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def applies_to(self, module: str) -> bool:
        """Whether the rule runs on a module with this dotted name."""
        if self._in_scope(module, self.excludes):
            return False
        return not self.scopes or self._in_scope(module, self.scopes)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (module rules only)."""
        return iter(())

    def check_project(self, project: "ProjectModel") -> Iterator[Finding]:
        """Yield findings needing the whole program (project rules only)."""
        return iter(())

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            hint=self.hint if hint is None else hint,
        )


# Register the rules; the imports are for their registration side
# effects.
from . import concurrency_rules, contract_rules, flow_rules  # noqa: E402,F401
