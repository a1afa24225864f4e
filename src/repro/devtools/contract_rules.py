"""Cross-layer contract drift rules (SQL/SCHEMA/CFG families).

These project-tier rules check both sides of every contract surface
harvested by :mod:`repro.devtools.contracts`:

========== =================================================================
rule       drift caught
========== =================================================================
SQL001     query references a table/column absent from the extracted DDL,
           ``INSERT`` placeholder arity mismatch, or ``SELECT *`` against a
           table owned by a versioned artifact module
SCHEMA001  payload key written under a schema id but never read by any
           consumer of that id, and vice versa
CFG002     config field defined but never read, or ``getattr`` read of a
           field no config class defines
========== =================================================================

Every finding carries a trace pointing at the other side of the broken
contract (the DDL, the reader/writer, the config class), so
the SARIF output renders the drift as a code flow.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from typing import ClassVar

from .contracts import (
    DYNAMIC,
    PayloadSite,
    ProjectContracts,
    SqlQuery,
    SqlTable,
    contracts_for,
)
from .findings import Finding, Severity, TraceStep
from .project import ProjectModel
from .rules import Rule

_TABLE_REF_RE = re.compile(
    r"\b(?:FROM|INTO|UPDATE|JOIN)\s+([A-Za-z_]\w*)", re.IGNORECASE
)
_ALIAS_RE = re.compile(
    r"\b(?:FROM|JOIN)\s+([A-Za-z_]\w*)\s+(?:AS\s+)?([A-Za-z_]\w*)",
    re.IGNORECASE,
)
_COLUMN_ALIAS_RE = re.compile(r"\bAS\s+([A-Za-z_]\w*)", re.IGNORECASE)
#: A common table expression: ``WITH [RECURSIVE] name [(columns)] AS (``.
_CTE_RE = re.compile(
    r"\bWITH\s+(?:RECURSIVE\s+)?([A-Za-z_]\w*)\s*(?:\(([^)]*)\))?\s*AS\s*\(",
    re.IGNORECASE,
)
_IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)(\.[A-Za-z_]\w*)?")
_SELECT_STAR_RE = re.compile(r"\bSELECT\s+\*", re.IGNORECASE)
_STRING_LITERAL_RE = re.compile(r"'[^']*'")
_INSERT_RE = re.compile(
    r"\bINSERT\s+(?:OR\s+\w+\s+)?INTO\s+([A-Za-z_]\w*)\s*"
    r"(?:\(([^)]*)\))?\s*VALUES\s*\(([^)]*)\)",
    re.IGNORECASE | re.DOTALL,
)

#: SQL keywords and builtins that the identifier scan must not mistake
#: for column references.
_SQL_KEYWORDS = frozenset(
    """
    abort action add after all alter analyze and as asc attach autoincrement
    before begin between by cascade case cast check collate column commit
    conflict constraint create cross current current_date current_time
    current_timestamp database default deferrable deferred delete desc detach
    distinct do drop each else end escape except exclude exclusive exists
    explain fail filter first following for foreign from full glob group
    groups having if ignore immediate in index indexed initially inner insert
    instead intersect into is isnull join key last left like limit match
    natural no not nothing notnull null nulls of offset on or order others
    outer over partition plan pragma preceding primary query raise range
    recursive references regexp reindex release rename replace restrict right
    rollback row rows savepoint select set table temp temporary then ties to
    transaction trigger unbounded union unique update using vacuum values
    view virtual when where window with without
    blob integer real text numeric boolean
    true false
    """.split()
)

#: Pseudo-tables/columns SQLite provides implicitly.
_IMPLICIT_TABLES = frozenset({"sqlite_master", "sqlite_sequence"})
_IMPLICIT_COLUMNS = frozenset({"rowid", "oid"})


def _trace(steps: Iterable[tuple[str, int, str]]) -> tuple[TraceStep, ...]:
    return tuple(TraceStep(path=path, line=line, message=message)
                 for path, line, message in steps)


class _ContractRule(Rule):
    """Shared plumbing for rules driven by :func:`contracts_for`.

    Not registered itself (empty ``rule_id``); concrete subclasses set
    one and self-register through ``Rule.__init_subclass__``.
    """

    requires_project: ClassVar[bool] = True

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        yield from self.check_contracts(contracts_for(project))

    def check_contracts(
        self, contracts: ProjectContracts
    ) -> Iterator[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

    def make_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        trace: tuple[TraceStep, ...] = (),
        hint: str | None = None,
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            hint=hint if hint is not None else self.hint,
            trace=trace,
        )


class SqlContractRule(_ContractRule):
    """SQL001 — queries must agree with the extracted DDL."""

    rule_id: ClassVar[str] = "SQL001"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = (
        "SQL query drifts from the declared DDL (unknown table/column, "
        "INSERT arity mismatch, or SELECT * against a versioned artifact)"
    )
    hint: ClassVar[str] = (
        "reconcile the query with the CREATE TABLE statement it targets; "
        "name columns explicitly when the table backs a versioned schema"
    )
    family_description: ClassVar[str] = "SQL/DDL contract integrity"

    def check_contracts(self, contracts: ProjectContracts) -> Iterator[Finding]:
        if not contracts.tables:
            return
        by_name = contracts.tables_by_name()
        for query in contracts.queries:
            yield from self._check_query(contracts, by_name, query)

    def _check_query(
        self,
        contracts: ProjectContracts,
        by_name: dict[str, list[SqlTable]],
        query: SqlQuery,
    ) -> Iterator[Finding]:
        sql = _STRING_LITERAL_RE.sub("''", query.sql)
        if re.match(r"\s*(PRAGMA|ATTACH|DETACH|VACUUM)\b", sql, re.IGNORECASE):
            return
        local = contracts.tables_in(query.module)
        # ``DO UPDATE SET`` makes the ref regex capture the keyword
        # after UPDATE; keywords are never table names.
        refs = [
            name
            for name in dict.fromkeys(_TABLE_REF_RE.findall(sql))
            if name.lower() not in _SQL_KEYWORDS
        ]
        # A CTE is a table of the query itself: its declared column
        # list is checked like DDL; without one its columns are unknown.
        ctes = {
            match.group(1): None
            if match.group(2) is None
            else SqlTable(
                name=match.group(1),
                module=query.module,
                path=query.path,
                line=query.line,
                columns=tuple(c.strip() for c in match.group(2).split(",")),
            )
            for match in _CTE_RE.finditer(sql)
        }
        resolved: dict[str, SqlTable | None] = {}
        for name in refs:
            if name.lower() in _IMPLICIT_TABLES or name == DYNAMIC:
                resolved[name] = None  # wildcard: columns unknown, no checks
            elif name in ctes:
                resolved[name] = ctes[name]
            elif name in local:
                resolved[name] = local[name]
            elif name in by_name:
                resolved[name] = by_name[name][0]
            else:
                declared = sorted(local) or sorted(by_name)
                yield self.make_finding(
                    query.path,
                    query.line,
                    query.col,
                    f"query references table {name!r} which no CREATE TABLE "
                    "statement in the project declares",
                    trace=_trace(
                        (t.path, t.line, f"declared table {t.name!r}")
                        for t in sorted(
                            contracts.tables, key=lambda t: (t.path, t.line)
                        )[:3]
                    ),
                    hint=f"declared tables: {', '.join(declared[:8])}",
                )
        yield from self._check_select_star(contracts, query, sql, resolved)
        yield from self._check_insert_arity(query, sql, resolved)
        yield from self._check_columns(query, sql, resolved)

    def _check_select_star(
        self,
        contracts: ProjectContracts,
        query: SqlQuery,
        sql: str,
        resolved: dict[str, SqlTable | None],
    ) -> Iterator[Finding]:
        if not _SELECT_STAR_RE.search(sql):
            return
        for table in resolved.values():
            if table is not None and table.module in contracts.versioned_modules:
                yield self.make_finding(
                    query.path,
                    query.line,
                    query.col,
                    f"SELECT * against table {table.name!r} owned by versioned "
                    f"artifact module {table.module!r}; a schema bump silently "
                    "changes this query's row shape",
                    trace=_trace(
                        [(table.path, table.line, f"table {table.name!r} declared here")]
                    ),
                    hint="name the columns explicitly so schema drift fails loudly",
                )

    def _check_insert_arity(
        self,
        query: SqlQuery,
        sql: str,
        resolved: dict[str, SqlTable | None],
    ) -> Iterator[Finding]:
        for match in _INSERT_RE.finditer(sql):
            table = resolved.get(match.group(1))
            if table is None:
                continue
            column_list = match.group(2)
            values = match.group(3)
            if set(values.replace("?", "").replace(",", "").split()) - {""}:
                continue  # expressions, not a pure placeholder tuple
            placeholders = values.count("?")
            if column_list:
                names = [c.strip() for c in column_list.split(",") if c.strip()]
                for name in names:
                    if name not in table.columns and name.lower() not in _IMPLICIT_COLUMNS:
                        yield self._column_finding(query, name, table)
                expected = len(names)
            else:
                expected = len(table.columns)
            if placeholders and placeholders != expected:
                yield self.make_finding(
                    query.path,
                    query.line,
                    query.col,
                    f"INSERT into {table.name!r} binds {placeholders} "
                    f"placeholder(s) but the target column list has {expected}",
                    trace=_trace(
                        [(table.path, table.line, f"table {table.name!r} declared here")]
                    ),
                )

    def _check_columns(
        self,
        query: SqlQuery,
        sql: str,
        resolved: dict[str, SqlTable | None],
    ) -> Iterator[Finding]:
        tables = [t for t in resolved.values() if t is not None]
        if not tables or any(t is None for t in resolved.values()):
            # An unknown or wildcard table makes column membership
            # undecidable; stay silent rather than guess.
            return
        if DYNAMIC in sql:
            return
        aliases: dict[str, SqlTable] = {}
        for match in _ALIAS_RE.finditer(sql):
            table_name, alias = match.group(1), match.group(2)
            if alias.lower() in _SQL_KEYWORDS:
                continue
            table = resolved.get(table_name)
            if table is not None:
                aliases[alias] = table
        column_aliases = {
            m.group(1)
            for m in _COLUMN_ALIAS_RE.finditer(sql)
            if m.group(1).lower() not in _SQL_KEYWORDS
        }
        known_columns = set(_IMPLICIT_COLUMNS) | column_aliases
        for table in tables:
            known_columns.update(table.columns)
        known_names = set(resolved) | set(aliases) | {"excluded"}
        for match in _IDENT_RE.finditer(sql):
            token, dotted = match.group(1), match.group(2)
            rest = sql[match.end() :].lstrip()
            if rest.startswith("("):
                continue  # function call
            if dotted:
                qualifier, column = token, dotted[1:]
                owner = aliases.get(qualifier) or resolved.get(qualifier)
                if qualifier == "excluded":
                    insert = _INSERT_RE.search(sql)
                    owner = resolved.get(insert.group(1)) if insert else None
                if owner is None:
                    continue
                if (
                    column not in owner.columns
                    and column.lower() not in _IMPLICIT_COLUMNS
                ):
                    yield self._column_finding(query, column, owner)
                continue
            lowered = token.lower()
            if (
                lowered in _SQL_KEYWORDS
                or token in known_columns
                or token in known_names
            ):
                continue
            yield self._column_finding(query, token, tables[0], tables)

    def _column_finding(
        self,
        query: SqlQuery,
        column: str,
        table: SqlTable,
        tables: "list[SqlTable] | None" = None,
    ) -> Finding:
        scope = tables or [table]
        declared = sorted({c for t in scope for c in t.columns})
        return self.make_finding(
            query.path,
            query.line,
            query.col,
            f"query references column {column!r} which the declared DDL for "
            f"{'/'.join(sorted({t.name for t in scope}))!s} does not define",
            trace=_trace(
                (t.path, t.line, f"table {t.name!r}: columns {', '.join(t.columns)}")
                for t in scope
            ),
            hint=f"declared columns: {', '.join(declared)}",
        )


class SchemaKeyDriftRule(_ContractRule):
    """SCHEMA001 — writer/reader key sets of a schema id must agree."""

    rule_id: ClassVar[str] = "SCHEMA001"
    severity: ClassVar[Severity] = Severity.WARNING
    summary: ClassVar[str] = (
        "payload key written under a versioned schema id but never read by "
        "any consumer of that id (or read but never written)"
    )
    hint: ClassVar[str] = (
        "either consume the key in a reader of this schema id or stop "
        "emitting it; dead keys hide real drift"
    )
    family_description: ClassVar[str] = "versioned payload schema agreement"

    def check_contracts(self, contracts: ProjectContracts) -> Iterator[Finding]:
        writers: dict[str, list[PayloadSite]] = {}
        readers: dict[str, list[PayloadSite]] = {}
        for site in contracts.payload_sites:
            bucket = writers if site.role == "writer" else readers
            bucket.setdefault(site.schema_id, []).append(site)
        for schema_id in sorted(set(writers) & set(readers)):
            yield from self._check_schema(
                contracts, schema_id, writers[schema_id], readers[schema_id]
            )

    def _check_schema(
        self,
        contracts: ProjectContracts,
        schema_id: str,
        writers: list[PayloadSite],
        readers: list[PayloadSite],
    ) -> Iterator[Finding]:
        written = {key for w in writers for key in w.keys}
        read_local = {key for r in readers for key in r.keys}
        # Written-but-never-read uses *broad* evidence: any constant key
        # read anywhere in a reader's module counts, so helpers the
        # reader delegates to (attribute loads, membership tuples) keep
        # a key alive.
        broad_read = set(read_local)
        for site in readers:
            broad_read |= contracts.module_read_keys.get(site.module, frozenset())
        for key in sorted(written - broad_read - {"schema"}):
            site = next(w for w in writers if key in w.keys)
            yield self.make_finding(
                site.path,
                site.line,
                1,
                f"payload key {key!r} is written under schema {schema_id!r} "
                f"in {site.function}() but no reader of that schema ever "
                "consumes it",
                trace=_trace(
                    (r.path, r.line, f"reader {r.function}() of {schema_id!r}")
                    for r in readers
                ),
            )
        for key in sorted(read_local - written - {"schema"}):
            site = next(r for r in readers if key in r.keys)
            yield self.make_finding(
                site.path,
                site.line,
                1,
                f"reader {site.function}() of schema {schema_id!r} consumes "
                f"key {key!r} which no writer of that schema emits",
                trace=_trace(
                    (w.path, w.line, f"writer {w.function}() of {schema_id!r}")
                    for w in writers
                ),
            )


class ConfigFieldDriftRule(_ContractRule):
    """CFG002 — config fields must be read; getattr reads must exist."""

    rule_id: ClassVar[str] = "CFG002"
    severity: ClassVar[Severity] = Severity.WARNING
    summary: ClassVar[str] = (
        "config field defined but never read, or getattr() config read of a "
        "field no config class defines"
    )
    hint: ClassVar[str] = (
        "delete the dead field or wire it into the code path it was meant "
        "to control"
    )
    family_description: ClassVar[str] = "config field liveness"

    def check_contracts(self, contracts: ProjectContracts) -> Iterator[Finding]:
        classes = {c.cls: c for c in contracts.config_classes}
        for config_field in contracts.config_fields:
            if config_field.name in contracts.attribute_reads:
                continue
            owner = classes.get(config_field.cls)
            trace = ()
            if owner is not None:
                trace = _trace(
                    [(owner.path, owner.line, f"class {owner.cls} defined here")]
                )
            yield self.make_finding(
                config_field.path,
                config_field.line,
                1,
                f"config field {config_field.cls}.{config_field.name} is "
                "defined but never read anywhere in the project",
                trace=trace,
            )
        defined = {f.name for f in contracts.config_fields}
        if not defined:
            return
        for read in contracts.config_getattrs:
            if read.name in defined:
                continue
            yield self.make_finding(
                read.path,
                read.line,
                read.col,
                f"getattr() reads config field {read.name!r} which no "
                "*Config dataclass defines",
                trace=_trace(
                    (c.path, c.line, f"class {c.cls} defined here")
                    for c in contracts.config_classes
                ),
                hint="fix the field name or add the field to the config class",
            )
