"""Tests for contract extraction and the cross-layer drift rules.

Each contract rule (SQL001, SCHEMA001, CFG002) gets a fixture snippet
that must fire, one that must not, and one suppressed with
``# repro: noqa``.  The extraction layer itself is tested for
determinism: the ``contracts.json`` payload must be byte-identical
between two runs over the same tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.devtools.analyzer import AnalysisStats, Analyzer
from repro.devtools.contracts import CONTRACTS_SCHEMA, extract_contracts
from repro.devtools.project import ProjectModel
from repro.devtools.rules import all_rules
from repro.devtools.sarif import render_sarif

CONTRACT_RULES = {"SQL001", "SCHEMA001", "CFG002"}


def _findings(source: str, module: str, select: "set[str] | None" = None):
    analyzer = Analyzer(select=select)
    return analyzer.analyze_source(
        textwrap.dedent(source), path=f"{module.replace('.', '/')}.py", module=module
    )


def _rule_ids(source: str, module: str, select: "set[str] | None" = None):
    return [f.rule_id for f in _findings(source, module, select)]


# -- registry ---------------------------------------------------------------------


def test_contract_rules_are_registered():
    assert CONTRACT_RULES <= {rule.rule_id for rule in all_rules()}


def test_contract_rules_carry_family_descriptions():
    by_id = {rule.rule_id: rule for rule in all_rules()}
    for rule_id in CONTRACT_RULES:
        assert by_id[rule_id].family_description, rule_id


# -- SQL001: query vs DDL ---------------------------------------------------------


_SQL_MODULE = "repro.db.demo"


def test_sql001_unknown_column_fires():
    source = """
        _SCHEMA = "CREATE TABLE docs (id INTEGER PRIMARY KEY, body TEXT)"

        def setup(conn):
            conn.execute(_SCHEMA)

        def read(conn):
            return conn.execute("SELECT id, missing FROM docs").fetchall()
    """
    findings = _findings(source, _SQL_MODULE, select={"SQL001"})
    assert [f.rule_id for f in findings] == ["SQL001"]
    assert "missing" in findings[0].message
    assert findings[0].trace, "SQL001 must carry a trace to the DDL"


def test_sql001_unknown_table_fires():
    ids = _rule_ids(
        """
        _SCHEMA = "CREATE TABLE docs (id INTEGER PRIMARY KEY)"

        def setup(conn):
            conn.execute(_SCHEMA)

        def read(conn):
            return conn.execute("SELECT id FROM postings").fetchall()
        """,
        _SQL_MODULE,
        select={"SQL001"},
    )
    assert ids == ["SQL001"]


def test_sql001_insert_arity_mismatch_fires():
    ids = _rule_ids(
        """
        _SCHEMA = "CREATE TABLE docs (id INTEGER, body TEXT)"

        def setup(conn):
            conn.execute(_SCHEMA)

        def write(conn, row):
            conn.execute("INSERT INTO docs (id, body) VALUES (?, ?, ?)", row)
        """,
        _SQL_MODULE,
        select={"SQL001"},
    )
    assert ids == ["SQL001"]


def test_sql001_matching_query_is_clean():
    ids = _rule_ids(
        """
        _SCHEMA = "CREATE TABLE docs (id INTEGER PRIMARY KEY, body TEXT)"

        def setup(conn):
            conn.execute(_SCHEMA)

        def read(conn, key):
            conn.execute("INSERT INTO docs (id, body) VALUES (?, ?)", (key, ""))
            return conn.execute(
                "SELECT d.id, d.body FROM docs AS d WHERE d.id = ?", (key,)
            ).fetchall()
        """,
        _SQL_MODULE,
        select={"SQL001"},
    )
    assert ids == []


def test_sql001_noqa_suppresses():
    ids = _rule_ids(
        """
        _SCHEMA = "CREATE TABLE docs (id INTEGER PRIMARY KEY)"

        def setup(conn):
            conn.execute(_SCHEMA)

        def read(conn):
            return conn.execute("SELECT nope FROM docs")  # repro: noqa: SQL001
        """,
        _SQL_MODULE,
        select={"SQL001"},
    )
    assert ids == []


# -- SCHEMA001: payload writer vs reader ------------------------------------------


_SCHEMA_MODULE = "repro.store.demo"


def test_schema001_read_never_written_fires():
    findings = _findings(
        """
        SCHEMA = "repro.demo/1"

        def save(count):
            return {"schema": SCHEMA, "count": count}

        def load(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
            return payload["count"], payload["rows"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert [f.rule_id for f in findings] == ["SCHEMA001"]
    assert "rows" in findings[0].message
    assert findings[0].trace, "SCHEMA001 must point at the writer"


def test_schema001_written_never_read_fires():
    findings = _findings(
        """
        SCHEMA = "repro.demo/1"

        def save(count):
            return {"schema": SCHEMA, "count": count, "orphan": 1}

        def load(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
            return payload["count"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert [f.rule_id for f in findings] == ["SCHEMA001"]
    assert "orphan" in findings[0].message


def test_schema001_agreeing_sides_are_clean():
    ids = _rule_ids(
        """
        SCHEMA = "repro.demo/1"

        def save(count):
            return {"schema": SCHEMA, "count": count}

        def load(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
            return payload["count"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert ids == []


def test_schema001_helper_dict_keys_count_as_written():
    # Sub-payloads built in sibling dict literals of the same writer
    # function belong to the same schema (the incremental-state idiom).
    ids = _rule_ids(
        """
        SCHEMA = "repro.demo/1"

        def save(rows):
            body = {"rows": list(rows)}
            return {"schema": SCHEMA, "body": body}

        def load(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
            return payload["body"]["rows"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert ids == []


def test_schema001_noqa_suppresses():
    ids = _rule_ids(
        """
        SCHEMA = "repro.demo/1"

        def save(count):
            return {"schema": SCHEMA, "count": count}

        def load(payload):
            if payload.get("schema") != SCHEMA:  # repro: noqa: SCHEMA001
                raise ValueError("bad schema")
            return payload["count"], payload["rows"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert ids == []


# -- CFG002: config field liveness ------------------------------------------------


_CFG_MODULE = "repro.config_demo"


def test_cfg002_unread_field_fires():
    findings = _findings(
        """
        from dataclasses import dataclass

        @dataclass
        class DemoConfig:
            used: int = 1
            unused: int = 2

        def consume(cfg: DemoConfig):
            return cfg.used
        """,
        _CFG_MODULE,
        select={"CFG002"},
    )
    assert [f.rule_id for f in findings] == ["CFG002"]
    assert "unused" in findings[0].message


def test_cfg002_post_init_only_read_still_fires():
    # Validation inside __post_init__ must not count as consumption.
    ids = _rule_ids(
        """
        from dataclasses import dataclass

        @dataclass
        class DemoConfig:
            knob: int = 1

            def __post_init__(self):
                if self.knob < 0:
                    raise ValueError("knob")
        """,
        _CFG_MODULE,
        select={"CFG002"},
    )
    assert ids == ["CFG002"]


def test_cfg002_all_fields_read_is_clean():
    ids = _rule_ids(
        """
        from dataclasses import dataclass

        @dataclass
        class DemoConfig:
            used: int = 1
            also_used: int = 2

        def consume(cfg: DemoConfig):
            return cfg.used + cfg.also_used
        """,
        _CFG_MODULE,
        select={"CFG002"},
    )
    assert ids == []


def test_cfg002_getattr_of_unknown_field_fires():
    findings = _findings(
        """
        from dataclasses import dataclass

        @dataclass
        class DemoConfig:
            used: int = 1

        def consume(config: DemoConfig):
            config.used
            return getattr(config, "missing", None)
        """,
        _CFG_MODULE,
        select={"CFG002"},
    )
    assert [f.rule_id for f in findings] == ["CFG002"]
    assert "missing" in findings[0].message


def test_cfg002_noqa_suppresses():
    ids = _rule_ids(
        """
        from dataclasses import dataclass

        @dataclass
        class DemoConfig:
            used: int = 1
            unused: int = 2  # repro: noqa: CFG002

        def consume(cfg: DemoConfig):
            return cfg.used
        """,
        _CFG_MODULE,
        select={"CFG002"},
    )
    assert ids == []


# -- SARIF traces -----------------------------------------------------------------


def test_contract_finding_traces_serialize_to_sarif_code_flows():
    findings = _findings(
        """
        SCHEMA = "repro.demo/1"

        def save(count):
            return {"schema": SCHEMA, "count": count}

        def load(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
            return payload["count"], payload["rows"]
        """,
        _SCHEMA_MODULE,
        select={"SCHEMA001"},
    )
    assert findings and findings[0].trace
    sarif = json.loads(render_sarif(findings))
    result = sarif["runs"][0]["results"][0]
    assert result["ruleId"] == "SCHEMA001"
    flows = result["codeFlows"][0]["threadFlows"][0]["locations"]
    messages = [
        loc["location"]["message"]["text"] for loc in flows
    ]
    assert any("writer" in message for message in messages)


# -- extraction determinism -------------------------------------------------------


_PKG_SOURCES = {
    "__init__.py": "",
    "store.py": """\
SCHEMA = "repro.pkg-store/1"
_DDL = "CREATE TABLE rows (key TEXT PRIMARY KEY, value TEXT)"


def setup(conn):
    conn.execute(_DDL)


def save(rows):
    return {"schema": SCHEMA, "rows": list(rows)}


def load(payload):
    if payload.get("schema") != SCHEMA:
        raise ValueError("bad schema")
    return payload["rows"]
""",
    "config.py": """\
from dataclasses import dataclass


@dataclass
class PkgConfig:
    limit: int = 10


def limit(config):
    return config.limit
""",
}


def _write_package(root: Path) -> Path:
    package = root / "pkg"
    package.mkdir()
    for name, source in _PKG_SOURCES.items():
        (package / name).write_text(source, encoding="utf-8")
    return package


def _run(analyzer: Analyzer, package: Path):
    contracts: dict = {}
    findings = analyzer.analyze_paths([package], contracts_out=contracts)
    return findings, contracts


def test_contracts_payload_is_byte_identical_across_runs(tmp_path):
    package = _write_package(tmp_path)
    analyzer = Analyzer()
    first_findings, first = _run(analyzer, package)
    second_findings, second = _run(analyzer, package)

    assert second_findings == first_findings
    first_bytes = json.dumps(first, indent=2, sort_keys=True)
    second_bytes = json.dumps(second, indent=2, sort_keys=True)
    assert first_bytes == second_bytes
    assert first["schema"] == CONTRACTS_SCHEMA
    table_names = [t["name"] for t in first["sql"]["tables"]]
    assert table_names == ["rows"]
    assert [f["name"] for f in first["config"]["fields"]] == ["limit"]


def test_extract_contracts_is_deterministic_across_instances(tmp_path):
    package = _write_package(tmp_path)
    one = extract_contracts(ProjectModel.from_paths([package])).to_payload()
    two = extract_contracts(ProjectModel.from_paths([package])).to_payload()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_real_tree_is_clean_of_contract_drift():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    analyzer = Analyzer(select=CONTRACT_RULES)
    stats = AnalysisStats()
    findings = analyzer.analyze_paths([src], stats=stats)
    assert findings == []
