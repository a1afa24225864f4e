"""Static extraction of the program's declared contracts.

The reproduction's subsystems talk to each other through interfaces the
type checker never sees: SQLite DDL embedded in string literals, JSON
payloads tagged with versioned schema ids, and dataclass config fields.
Drift between the two sides of any of these contracts (a writer and a
reader, a query and its DDL, a field and its readers) only surfaces at
runtime.

This module harvests every such contract from a parsed
:class:`~repro.devtools.project.ProjectModel` — purely syntactically,
never importing the analyzed code — into one deterministic
:class:`ProjectContracts` database (payload schema
``repro.contracts/1``).  The contract rules in
:mod:`repro.devtools.contract_rules` check both sides of each contract
against it, and ``repro lint --contracts-out`` serializes it for CI.

Extracted surfaces:

* **SQL** — ``CREATE TABLE``/``CREATE INDEX`` statements found in
  module-level string constants or literal ``execute*()`` arguments,
  plus every query literal passed to ``.execute()`` /
  ``.executemany()`` / ``.executescript()``.  Interpolated f-string
  fragments become the :data:`DYNAMIC` wildcard marker.
* **Payload schemas** — dict literals carrying a ``"schema"`` key whose
  value is a versioned id (``repro.index/1``-style) are *writers*;
  functions comparing a value against such an id are *readers*.  Key
  sets are harvested on both sides.
* **Config** — fields of ``*Config`` dataclasses versus attribute reads
  anywhere in the program (``__post_init__`` bodies excluded, so
  validation-only reads don't mask dead fields).
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field

from .context import ModuleContext
from .project import ProjectModel

__all__ = [
    "CONTRACTS_SCHEMA",
    "DYNAMIC",
    "ProjectContracts",
    "contracts_for",
    "extract_contracts",
]

#: Schema tag of the contracts payload (bump on layout changes).
CONTRACTS_SCHEMA = "repro.contracts/2"

#: Marker substituted for each interpolated f-string fragment in a
#: harvested SQL string.  Literal braces cannot survive unescaped in
#: f-string text, so the marker never collides with real content.
DYNAMIC = "{*}"

#: A versioned payload schema id: ``repro.index/1``, ``repro.bench_lint/1``.
_SCHEMA_ID_RE = re.compile(r"[a-z][\w.-]*/\d+\Z")

#: ``CREATE TABLE [IF NOT EXISTS] name (`` — the column body is scanned
#: with a balanced-paren walk, not a regex, because column constraints
#: nest parentheses (``PRIMARY KEY (a, b)``).
_CREATE_TABLE_RE = re.compile(
    r"\bCREATE\s+TABLE\s+(?:IF\s+NOT\s+EXISTS\s+)?([A-Za-z_]\w*)\s*\(",
    re.IGNORECASE,
)

_CREATE_INDEX_RE = re.compile(
    r"\bCREATE\s+(?:UNIQUE\s+)?INDEX\s+(?:IF\s+NOT\s+EXISTS\s+)?"
    r"([A-Za-z_]\w*)\s+ON\s+([A-Za-z_]\w*)\s*\(([^)]*)\)",
    re.IGNORECASE,
)

#: Tokens that start a column *constraint* rather than a column name.
_DDL_CONSTRAINT_STARTERS = frozenset(
    {"primary", "unique", "foreign", "check", "constraint"}
)

_SQL_EXECUTE_METHODS = frozenset({"execute", "executemany", "executescript"})


# ---------------------------------------------------------------------------
# contract records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqlTable:
    """One ``CREATE TABLE`` statement harvested from a string literal."""

    name: str
    module: str
    path: str
    line: int
    columns: tuple[str, ...]


@dataclass(frozen=True)
class SqlIndexDef:
    """One ``CREATE INDEX`` statement."""

    name: str
    table: str
    module: str
    path: str
    line: int
    columns: tuple[str, ...]


@dataclass(frozen=True)
class SqlQuery:
    """One literal query passed to ``execute``/``executemany``."""

    sql: str
    module: str
    path: str
    line: int
    col: int
    dynamic: bool


@dataclass(frozen=True)
class PayloadSite:
    """A writer or reader of one versioned payload schema id."""

    schema_id: str
    role: str  # "writer" | "reader"
    module: str
    path: str
    function: str
    line: int
    keys: tuple[str, ...]


@dataclass(frozen=True)
class ConfigClassDef:
    """One ``*Config`` dataclass definition."""

    cls: str
    module: str
    path: str
    line: int


@dataclass(frozen=True)
class ConfigField:
    """One annotated field of a ``*Config`` dataclass."""

    cls: str
    name: str
    module: str
    path: str
    line: int


@dataclass(frozen=True)
class ConfigGetattr:
    """A ``getattr(config-ish, "name")`` dynamic config read."""

    name: str
    module: str
    path: str
    line: int
    col: int


@dataclass
class ProjectContracts:
    """Every contract harvested from one project — the rules' database."""

    tables: tuple[SqlTable, ...] = ()
    indexes: tuple[SqlIndexDef, ...] = ()
    queries: tuple[SqlQuery, ...] = ()
    payload_sites: tuple[PayloadSite, ...] = ()
    #: module → every constant key the module reads from any mapping
    #: (subscripts, ``.get``, ``in`` membership, key tuples) — the broad
    #: read evidence SCHEMA001 uses before calling a written key dead.
    module_read_keys: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Modules that declare a versioned schema-id string constant —
    #: ``SELECT *`` against their tables is a drift hazard.
    versioned_modules: frozenset[str] = frozenset()
    config_classes: tuple[ConfigClassDef, ...] = ()
    config_fields: tuple[ConfigField, ...] = ()
    #: Every attribute name read anywhere (``__post_init__`` excluded).
    attribute_reads: frozenset[str] = frozenset()
    config_getattrs: tuple[ConfigGetattr, ...] = ()

    # -- lookup helpers ----------------------------------------------------------

    def tables_in(self, module: str) -> dict[str, SqlTable]:
        return {t.name: t for t in self.tables if t.module == module}

    def tables_by_name(self) -> dict[str, list[SqlTable]]:
        by_name: dict[str, list[SqlTable]] = {}
        for table in self.tables:
            by_name.setdefault(table.name, []).append(table)
        return by_name

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict:
        """Deterministic JSON-ready payload (schema :data:`CONTRACTS_SCHEMA`).

        Every collection is sorted, so ``json.dumps(..., sort_keys=True)``
        is byte-stable across runs.
        """

        def rows(records, key) -> list[dict]:
            return [asdict(record) for record in sorted(records, key=key)]

        return {
            "schema": CONTRACTS_SCHEMA,
            "sql": {
                "tables": rows(self.tables, lambda t: (t.module, t.name, t.line)),
                "indexes": rows(self.indexes, lambda i: (i.module, i.name, i.line)),
                "queries": rows(
                    self.queries, lambda q: (q.path, q.line, q.col, q.sql)
                ),
            },
            "payload_schemas": rows(
                self.payload_sites, lambda s: (s.schema_id, s.role, s.path, s.line)
            ),
            "config": {
                "classes": rows(self.config_classes, lambda c: (c.module, c.cls)),
                "fields": [
                    {**row, "read": row["name"] in self.attribute_reads}
                    for row in rows(
                        self.config_fields, lambda f: (f.module, f.cls, f.line)
                    )
                ],
                "getattr_reads": rows(
                    self.config_getattrs, lambda g: (g.path, g.line, g.name)
                ),
            },
        }


def contracts_for(project: ProjectModel) -> ProjectContracts:
    """Extract (or reuse) the contracts of ``project``.

    Memoized on the project instance so the contract rules and the
    ``--contracts-out`` serialization share one extraction pass.
    """
    cached = getattr(project, "_contracts_cache", None)
    if cached is None:
        cached = extract_contracts(project)
        project._contracts_cache = cached
    return cached


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extract_contracts(project: ProjectModel) -> ProjectContracts:
    """Harvest every contract surface from the project's modules."""
    contexts = sorted(project.modules.values(), key=lambda ctx: ctx.path)
    consts = {ctx.module: _module_constants(ctx) for ctx in contexts}
    harvest = _Harvest(consts)
    for ctx in contexts:
        harvest.scan_module(ctx)
    return harvest.build()


def _module_constants(ctx: ModuleContext) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` string assignments."""
    table: dict[str, str] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            table[target.id] = value.value
    return table


class _Harvest:
    """Accumulates contract records over one pass per module."""

    def __init__(self, consts: dict[str, dict[str, str]]) -> None:
        self._consts = consts
        self._tables: list[SqlTable] = []
        self._indexes: list[SqlIndexDef] = []
        self._queries: list[SqlQuery] = []
        self._payload_sites: list[PayloadSite] = []
        self._module_read_keys: dict[str, frozenset[str]] = {}
        self._versioned_modules: set[str] = set()
        self._config_classes: list[ConfigClassDef] = []
        self._config_fields: list[ConfigField] = []
        self._attribute_reads: set[str] = set()
        self._config_getattrs: list[ConfigGetattr] = []

    def build(self) -> ProjectContracts:
        return ProjectContracts(
            tables=tuple(self._tables),
            indexes=tuple(self._indexes),
            queries=tuple(self._queries),
            payload_sites=tuple(self._payload_sites),
            module_read_keys=self._module_read_keys,
            versioned_modules=frozenset(self._versioned_modules),
            config_classes=tuple(self._config_classes),
            config_fields=tuple(self._config_fields),
            attribute_reads=frozenset(self._attribute_reads),
            config_getattrs=tuple(self._config_getattrs),
        )

    # -- per-module scan ---------------------------------------------------------

    def scan_module(self, ctx: ModuleContext) -> None:
        module_consts = self._consts.get(ctx.module, {})
        for value in module_consts.values():
            if _SCHEMA_ID_RE.match(value):
                self._versioned_modules.add(ctx.module)

        # DDL from module-level constants (the ``_SCHEMA = "..."`` idiom).
        for node in ctx.tree.body:
            value = getattr(node, "value", None)
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and "create table" in value.value.lower()
            ):
                self._harvest_ddl(ctx, value.value, node.lineno)

        self._attribute_reads.update(_attribute_reads(ctx.tree))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._scan_call(ctx, node)
            elif isinstance(node, ast.Dict):
                self._scan_dict(ctx, node)
            elif isinstance(node, ast.Compare):
                self._scan_compare(ctx, node)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(ctx, node)
        self._module_read_keys[ctx.module] = frozenset(
            _constant_read_keys(ctx.tree)
        )

    # -- SQL ---------------------------------------------------------------------

    def _harvest_ddl(self, ctx: ModuleContext, text: str, line: int) -> None:
        for match in _CREATE_TABLE_RE.finditer(text):
            body = _balanced_parens(text, match.end() - 1)
            if body is None:
                continue
            columns = _ddl_columns(body)
            self._tables.append(
                SqlTable(
                    name=match.group(1),
                    module=ctx.module,
                    path=ctx.path,
                    line=line,
                    columns=tuple(columns),
                )
            )
        for match in _CREATE_INDEX_RE.finditer(text):
            columns = tuple(
                part.strip() for part in match.group(3).split(",") if part.strip()
            )
            self._indexes.append(
                SqlIndexDef(
                    name=match.group(1),
                    table=match.group(2),
                    module=ctx.module,
                    path=ctx.path,
                    line=line,
                    columns=columns,
                )
            )

    def _scan_call(self, ctx: ModuleContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SQL_EXECUTE_METHODS and node.args:
                self._scan_execute(ctx, node)
        elif isinstance(func, ast.Name):
            if func.id == "getattr" and len(node.args) >= 2:
                self._scan_getattr(ctx, node)

    def _scan_execute(self, ctx: ModuleContext, node: ast.Call) -> None:
        resolved = self._string_value(ctx, node.args[0])
        if resolved is None:
            return
        text, dynamic = resolved
        lowered = text.lower()
        if "create table" in lowered or "create index" in lowered:
            # DDL applied inline (not via a module constant): harvest it
            # unless the same statement was already seen as a constant.
            if not isinstance(node.args[0], (ast.Constant, ast.JoinedStr)):
                return  # resolved module constant: harvested at its assignment
            self._harvest_ddl(ctx, text, node.lineno)
            return
        self._queries.append(
            SqlQuery(
                sql=text,
                module=ctx.module,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset + 1,
                dynamic=dynamic,
            )
        )

    # -- payload schemas ---------------------------------------------------------

    def _dict_schema_id(self, ctx: ModuleContext, node: ast.Dict) -> "str | None":
        """The versioned schema id a dict literal tags itself with."""
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "schema"
                and value is not None
            ):
                resolved = self._string_value(ctx, value)
                if resolved is not None and _SCHEMA_ID_RE.match(resolved[0]):
                    return resolved[0]
        return None

    def _scan_dict(self, ctx: ModuleContext, node: ast.Dict) -> None:
        schema_id = self._dict_schema_id(ctx, node)
        if schema_id is None:
            return
        scope = _enclosing_function(ctx, node)
        scope_node = scope[1] if scope is not None else ctx.tree
        # Writer keys: every dict literal in the enclosing function
        # (helper sub-payloads built alongside the tagged dict count)
        # plus constant-key subscript stores (``payload["extra"] = ...``)
        # — but dict literals tagged with a *different* schema id are
        # excluded, since one function may write several payload kinds.
        keys = _subscript_store_keys(scope_node)
        for sibling in ast.walk(scope_node):
            if not isinstance(sibling, ast.Dict):
                continue
            other = self._dict_schema_id(ctx, sibling)
            if other is not None and other != schema_id:
                continue
            for key in sibling.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        self._payload_sites.append(
            PayloadSite(
                schema_id=schema_id,
                role="writer",
                module=ctx.module,
                path=ctx.path,
                function=scope[0] if scope is not None else "<module>",
                line=node.lineno,
                keys=tuple(sorted(keys)),
            )
        )

    def _scan_compare(self, ctx: ModuleContext, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        schema_id = None
        for operand in operands:
            resolved = self._string_value(ctx, operand)
            if resolved is not None and _SCHEMA_ID_RE.match(resolved[0]):
                schema_id = resolved[0]
        if schema_id is None:
            return
        scope = _enclosing_function(ctx, node)
        if scope is None:
            return
        name, scope_node = scope
        self._payload_sites.append(
            PayloadSite(
                schema_id=schema_id,
                role="reader",
                module=ctx.module,
                path=ctx.path,
                function=name,
                line=node.lineno,
                keys=tuple(sorted(_constant_read_keys(scope_node))),
            )
        )

    # -- config ------------------------------------------------------------------

    def _scan_class(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        if not node.name.endswith("Config") or not _is_dataclass(node):
            return
        self._config_classes.append(
            ConfigClassDef(
                cls=node.name, module=ctx.module, path=ctx.path, line=node.lineno
            )
        )
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
                and "ClassVar" not in ast.dump(item.annotation)
            ):
                self._config_fields.append(
                    ConfigField(
                        cls=node.name,
                        name=item.target.id,
                        module=ctx.module,
                        path=ctx.path,
                        line=item.lineno,
                    )
                )

    def _scan_getattr(self, ctx: ModuleContext, node: ast.Call) -> None:
        receiver, name_arg = node.args[0], node.args[1]
        if not (
            isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)
        ):
            return
        name = name_arg.value
        if "config" in ast.unparse(receiver).lower():
            self._attribute_reads.add(name)
            self._config_getattrs.append(
                ConfigGetattr(
                    name=name,
                    module=ctx.module,
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )

    # -- string resolution -------------------------------------------------------

    def _string_value(
        self, ctx: ModuleContext, node: ast.AST
    ) -> "tuple[str, bool] | None":
        """Resolve a string expression → ``(text, dynamic)``.

        ``dynamic`` marks f-strings, whose interpolations are replaced by
        :data:`DYNAMIC`; names resolve through module string constants.
        """
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return node.value, False
            return None
        if isinstance(node, ast.JoinedStr):
            parts = []
            dynamic = False
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                else:
                    parts.append(DYNAMIC)
                    dynamic = True
            return "".join(parts), dynamic
        if isinstance(node, (ast.Name, ast.Attribute)):
            qualified = ctx.resolve(node)
            if qualified is not None and "." in qualified:
                module, attr = qualified.rsplit(".", 1)
                value = self._consts.get(module, {}).get(attr)
                if value is not None:
                    return value, False
            if isinstance(node, ast.Name):
                value = self._consts.get(ctx.module, {}).get(node.id)
                if value is not None:
                    return value, False
        return None


# ---------------------------------------------------------------------------
# AST walk helpers
# ---------------------------------------------------------------------------


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names read anywhere outside ``__post_init__`` bodies.

    Config-field liveness keys off this; ``__post_init__`` is excluded
    so a field that is *only* validated at construction still counts as
    never read.
    """
    out: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == "__post_init__"
            ):
                continue
            if isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load
            ):
                out.add(child.attr)
            visit(child)

    visit(tree)
    return out


def _constant_read_keys(scope: ast.AST) -> set[str]:
    """Constant mapping keys read within ``scope``.

    Covers ``payload["key"]``, ``payload.get("key")``, ``"key" in
    payload``, and string constants inside tuple/list literals (the
    ``for key in ("a", "b"): key in payload`` idiom).
    """
    keys: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                keys.add(node.left.value)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    keys.add(element.value)
    return keys


def _subscript_store_keys(scope: ast.AST) -> set[str]:
    """Constant keys assigned via subscript within ``scope``."""
    keys: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
    return keys


def _enclosing_function(
    ctx: ModuleContext, node: ast.AST
) -> "tuple[str, ast.AST] | None":
    """Nearest enclosing function ``(name, node)`` of ``node``."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor.name, ancestor
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


# ---------------------------------------------------------------------------
# DDL parsing helpers
# ---------------------------------------------------------------------------


def _balanced_parens(text: str, start: int) -> str | None:
    """The contents of the paren group opening at ``text[start]``."""
    if start >= len(text) or text[start] != "(":
        return None
    depth = 0
    for position in range(start, len(text)):
        char = text[position]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1 : position]
    return None


def _ddl_columns(body: str) -> list[str]:
    """Column names from a ``CREATE TABLE`` body (constraints skipped)."""
    columns: list[str] = []
    depth = 0
    part_start = 0
    parts: list[str] = []
    for position, char in enumerate(body):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(body[part_start:position])
            part_start = position + 1
    parts.append(body[part_start:])
    for part in parts:
        tokens = part.split()
        if not tokens:
            continue
        first = tokens[0]
        if first.lower() in _DDL_CONSTRAINT_STARTERS:
            continue
        columns.append(first.strip('"`[]'))
    return columns
