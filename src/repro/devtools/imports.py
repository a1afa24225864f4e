"""Lightweight import tracker: resolve names to qualified dotted paths.

The analyzer never imports the code it checks; it resolves names purely
from the module's own ``import`` statements.  ``from
..observability.tracing import Span`` inside ``repro.resources.base``
binds the local name ``Span`` to ``repro.observability.tracing.Span``,
so a rule asking "is this call a Span construction?" compares one
string.  Names bound by assignment, closures, or ``importlib`` tricks
resolve to ``None`` — rules treat unresolved names as out of scope,
which keeps the pass free of false positives at the cost of missing
deliberately obfuscated violations (code review still exists).
"""

from __future__ import annotations

import ast


class ImportTracker:
    """Maps local names to the qualified names their imports bind."""

    def __init__(self) -> None:
        self._names: dict[str, str] = {}

    @classmethod
    def from_module(
        cls, tree: ast.Module, module: str = "", is_package: bool = False
    ) -> "ImportTracker":
        """Collect every top-level and nested import binding in ``tree``.

        ``module`` (dotted) and ``is_package`` anchor relative imports;
        with an empty module name, relative imports resolve against
        nothing and their heads stay unresolvable.
        """
        tracker = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        tracker._names[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds the head ``a``; deeper
                        # attributes resolve through the chain walk.
                        head = alias.name.split(".", 1)[0]
                        tracker._names[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = tracker._resolve_from_base(node, module, is_package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    qualified = f"{base}.{alias.name}" if base else alias.name
                    tracker._names[bound] = qualified
        return tracker

    @staticmethod
    def _resolve_from_base(
        node: ast.ImportFrom, module: str, is_package: bool
    ) -> str | None:
        """The dotted package a ``from X import …`` reads from."""
        if node.level == 0:
            return node.module or ""
        parts = module.split(".") if module else []
        if not is_package and parts:
            parts = parts[:-1]
        up = node.level - 1
        if up > len(parts):
            return None
        if up:
            parts = parts[:-up]
        if node.module:
            parts.extend(node.module.split("."))
        return ".".join(parts)

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified dotted name of a Name/Attribute chain, or None.

        ``time.time`` resolves through ``import time``;
        ``Span`` through ``from .tracing import Span``; anything whose
        head is not an import binding (``self.x``, call results) is
        None.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self._names.get(current.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))
