"""Per-module analysis context shared by every rule.

A :class:`ModuleContext` is one parsed module plus the bookkeeping the
rules need: the inferred dotted module name (so scoped rules know
whether they apply), child→parent AST links, the import tracker, and
the two comment conventions — ``# repro: noqa[...]`` suppressions and
``# order: ...`` determinism annotations.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .imports import ImportTracker

#: ``# repro: noqa`` or ``# repro: noqa[LEAK001,FLOW002]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?", re.IGNORECASE
)

#: ``# order: <free-text reason this iteration is order-safe>``.
_ORDER_RE = re.compile(r"#\s*order\s*:", re.IGNORECASE)


def python_files(paths: "list[str | Path]") -> list[Path]:
    """Each path as given, directories expanded to their ``*.py`` (sorted)."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def infer_module_name(path: "str | Path") -> str:
    """Dotted module name inferred from package layout on disk.

    Walks up from the file through directories that contain an
    ``__init__.py``; ``src/repro/core/pipeline.py`` becomes
    ``repro.core.pipeline`` no matter which directory the analyzer was
    pointed at.  A file outside any package is just its stem.
    """
    file_path = Path(path).resolve()
    parts: list[str] = []
    if file_path.stem != "__init__":
        parts.append(file_path.stem)
    directory = file_path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts))


class ModuleContext:
    """One module's source, AST, and rule-facing helpers."""

    def __init__(
        self,
        source: str,
        path: str = "<string>",
        module: str | None = None,
        is_package: bool | None = None,
    ) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        if module is None and path != "<string>":
            module = infer_module_name(path)
        self.module = module or ""
        if is_package is None:
            is_package = Path(path).name == "__init__.py"
        self.is_package = is_package
        self.tree = ast.parse(source, filename=path)
        self.imports = ImportTracker.from_module(
            self.tree, self.module, self.is_package
        )
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._noqa = self._collect_noqa()

    # -- AST navigation ----------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> "list[ast.AST]":
        """Parents of ``node`` from nearest to the module root."""
        chain: list[ast.AST] = []
        current = self.parent(node)
        while current is not None:
            chain.append(current)
            current = self.parent(current)
        return chain

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified name of a Name/Attribute chain via the imports."""
        return self.imports.resolve(node)

    # -- comment conventions -----------------------------------------------------

    def _collect_noqa(self) -> dict[int, frozenset[str] | None]:
        """Map line number → suppressed rule ids (None = all rules)."""
        table: dict[int, frozenset[str] | None] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                table[number] = None
            else:
                table[number] = frozenset(
                    rule.strip().upper() for rule in rules.split(",") if rule.strip()
                )
        return table

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when a ``# repro: noqa`` on ``line`` covers ``rule_id``."""
        if line not in self._noqa:
            return False
        rules = self._noqa[line]
        return rules is None or rule_id.upper() in rules

    def has_ordering_comment(self, line: int) -> bool:
        """True when ``line`` (or the line above) carries ``# order:``."""
        for number in (line, line - 1):
            if 1 <= number <= len(self.lines) and _ORDER_RE.search(
                self.lines[number - 1]
            ):
                return True
        return False
