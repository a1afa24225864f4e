"""Tests for the project-invariant static analyzer (repro.devtools).

Each rule is exercised with a fixture snippet that violates it, one
that satisfies it, and one that suppresses it with ``# repro: noqa``.
The CLI contract — exit non-zero with ``file:line`` + rule-id output on
a violating package, exit zero on the real ``src/repro`` tree — is
checked via ``python -m repro lint`` subprocesses, and the JSON
reporter's schema is validated.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analyzer import PARSE_ERROR, Analyzer
from repro.devtools.context import ModuleContext, infer_module_name
from repro.devtools.findings import Severity
from repro.devtools.imports import ImportTracker
from repro.devtools.reporting import render_json, render_text
from repro.devtools.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The ruleset: every rule kept because it found a real bug in this tree.
EXPECTED_RULES = {
    "DET002",
    "FLOW001",
    "FLOW002",
    "ASYNC001",
    "LEAK001",
    "RACE002",
    "SQL001",
    "SCHEMA001",
    "CFG002",
}

#: Rules deleted for never having fired on the tree; their ids must be
#: usage errors now, not silently-empty selections.
DELETED_RULES = (
    "DET001",
    "PAR001",
    "OBS001",
    "CACHE001",
    "API001",
    "CKPT001",
    "SRV001",
    "RACE001",
    "ASYNC002",
    "ASYNC003",
    "OBS002",
    "CLI002",
)


def check(source: str, module: str) -> list:
    """Analyze a dedented snippet under a given dotted module name."""
    return Analyzer().analyze_source(
        textwrap.dedent(source), path=f"{module.replace('.', '/')}.py", module=module
    )


def rule_ids(findings: list) -> set[str]:
    return {finding.rule_id for finding in findings}


# -- registry ---------------------------------------------------------------------


def test_registry_has_the_full_initial_ruleset():
    assert {rule.rule_id for rule in all_rules()} == EXPECTED_RULES


def test_rules_carry_metadata():
    for rule in all_rules():
        assert rule.summary, rule.rule_id
        assert rule.hint, rule.rule_id
        assert isinstance(rule.severity, Severity)


# -- import tracker ---------------------------------------------------------------


def test_import_tracker_resolves_absolute_and_aliased_imports():
    import ast

    tree = ast.parse(
        "import time\nimport os.path\nfrom uuid import uuid4 as u4\n"
    )
    tracker = ImportTracker.from_module(tree)
    assert tracker.resolve(ast.parse("time.time", mode="eval").body) == "time.time"
    assert tracker.resolve(ast.parse("os.path.join", mode="eval").body) == "os.path.join"
    assert tracker.resolve(ast.parse("u4", mode="eval").body) == "uuid.uuid4"
    assert tracker.resolve(ast.parse("unbound.name", mode="eval").body) is None


def test_import_tracker_resolves_relative_imports():
    import ast

    tree = ast.parse("from ..observability.tracing import Span\n")
    tracker = ImportTracker.from_module(
        tree, module="repro.resources.base", is_package=False
    )
    assert (
        tracker.resolve(ast.parse("Span", mode="eval").body)
        == "repro.observability.tracing.Span"
    )


def test_module_name_inference_walks_packages(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "stages.py").write_text("")
    assert infer_module_name(pkg / "stages.py") == "repro.core.stages"
    assert infer_module_name(pkg / "__init__.py") == "repro.core"


# -- DET002 -----------------------------------------------------------------------


def test_det002_flags_set_iteration():
    findings = check(
        """
        def merge(p, q):
            out = []
            for term in set(p) | set(q):
                out.append(term)
            return out
        """,
        "repro.core.distributional",
    )
    assert rule_ids(findings) == {"DET002"}


def test_det002_flags_dict_view_and_set_variable():
    findings = check(
        """
        def f(d, xs):
            items = [v for v in d.values()]
            s = set(xs)
            more = [x for x in s]
            return items, more
        """,
        "repro.core.stages",
    )
    assert len(findings) == 2
    assert rule_ids(findings) == {"DET002"}


def test_det002_sorted_wrapper_is_clean():
    findings = check(
        """
        def merge(p, q):
            return [term for term in sorted(set(p) | set(q))]
        """,
        "repro.core.distributional",
    )
    assert findings == []


def test_det002_ordering_comment_is_clean():
    findings = check(
        """
        def f(d):
            # order: summing ints is order-insensitive
            return sum(len(v) for v in d.values())
        """,
        "repro.core.stages",
    )
    assert findings == []


def test_det002_safe_consumers_are_clean():
    findings = check(
        """
        def f(xs):
            s = set(xs)
            return len(s), sorted(x for x in s), max(s | {0})
        """,
        "repro.core.stages",
    )
    assert findings == []


def test_det002_only_applies_to_core():
    findings = check(
        "def f(d):\n    return [v for v in d.values()]\n",
        "repro.eval.metrics",
    )
    assert findings == []


def test_det002_suppressed_by_noqa():
    findings = check(
        """
        def merge(p, q):
            out = []
            for term in set(p) | set(q):  # repro: noqa[DET002]
                out.append(term)
            return out
        """,
        "repro.core.distributional",
    )
    assert findings == []


# -- blocking calls in async views (SRV001, folded into ASYNC001) ------------------


def test_srv001_suppressed_by_noqa_and_scoped_to_serving():
    suppressed = check(
        """
        import time

        async def view(request):
            time.sleep(0.1)  # repro: noqa[ASYNC001]
        """,
        "repro.serving.app",
    )
    assert suppressed == []
    snippet = """
        import time

        async def worker():
            time.sleep(0.1)
        """
    # The serving-only SRV001 is gone; ASYNC001 covers every module.
    outside_serving = rule_ids(check(snippet, "repro.parallel.pool"))
    assert "SRV001" not in outside_serving
    assert "ASYNC001" in outside_serving


_SET_ITERATION = "def f(xs):\n    return [x for x in set(xs)]\n"


def test_select_and_ignore_filter_rules():
    only_det = Analyzer(select={"DET002"}).analyze_source(
        _SET_ITERATION, module="repro.core.stages"
    )
    assert rule_ids(only_det) == {"DET002"}
    without_det = Analyzer(ignore={"DET*"}).analyze_source(
        _SET_ITERATION, module="repro.core.stages"
    )
    assert "DET002" not in rule_ids(without_det)
    with pytest.raises(ValueError):
        Analyzer(select={"NOPE999"})
    with pytest.raises(ValueError):
        Analyzer(ignore={"NOPE999"})


def test_syntax_error_becomes_parse_finding():
    findings = Analyzer().analyze_source("def broken(:\n", path="bad.py")
    assert len(findings) == 1
    assert findings[0].rule_id == PARSE_ERROR
    assert findings[0].severity is Severity.ERROR


def test_blanket_noqa_suppresses_every_rule():
    findings = check(
        """
        def f(xs):
            return [x for x in set(xs)]  # repro: noqa
        """,
        "repro.core.stages",
    )
    assert findings == []


def test_context_tracks_ordering_comments_and_noqa():
    ctx = ModuleContext(
        "x = 1  # repro: noqa[DET002,LEAK001]\n# order: stable\ny = 2\n",
        module="repro.core.x",
    )
    assert ctx.is_suppressed(1, "DET002")
    assert ctx.is_suppressed(1, "leak001")
    assert not ctx.is_suppressed(1, "FLOW002")
    assert ctx.has_ordering_comment(2)
    assert ctx.has_ordering_comment(3)
    assert not ctx.has_ordering_comment(1)


# -- reporters --------------------------------------------------------------------


def _sample_findings() -> list:
    return check(
        """
        import sqlite3

        def f(path):
            return sqlite3.connect(path).total_changes
        """,
        "repro.core.stages",
    )


def test_text_reporter_formats_location_and_rule():
    findings = _sample_findings()
    text = render_text(findings)
    assert "repro/core/stages.py:5:" in text
    assert "LEAK001" in text
    assert "finding(s)" in text
    assert render_text([]) == "no findings"


def test_json_reporter_schema():
    findings = _sample_findings()
    report = json.loads(render_json(findings))
    assert report["version"] == 1
    assert set(report) == {"version", "findings", "summary"}
    assert report["summary"]["total"] == len(findings)
    assert report["summary"]["by_rule"]["LEAK001"] == 1
    assert report["summary"]["by_severity"]["error"] == 1
    for entry in report["findings"]:
        assert set(entry) == {
            "path",
            "line",
            "col",
            "rule_id",
            "severity",
            "message",
            "hint",
        }
        assert isinstance(entry["line"], int)
        assert entry["severity"] in {"info", "warning", "error"}


# -- CLI --------------------------------------------------------------------------


def _run_lint(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
        timeout=120,
    )


def _write_violating_package(root: Path) -> Path:
    """A temp package shaped like repro, seeded with violations."""
    core = root / "repro" / "core"
    core.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    (core / "bad.py").write_text(
        textwrap.dedent(
            """
            import sqlite3

            def stage(p, q, path):
                out = []
                for term in set(p) | set(q):
                    out.append(term)
                return out, sqlite3.connect(path).total_changes
            """
        )
    )
    return root / "repro"


def test_cli_exits_nonzero_on_violating_package(tmp_path):
    package = _write_violating_package(tmp_path)
    result = _run_lint(str(package))
    assert result.returncode == 1
    assert "LEAK001" in result.stdout
    assert "DET002" in result.stdout
    assert "bad.py:" in result.stdout


def test_cli_exits_zero_on_the_repo():
    result = _run_lint("src/repro")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no findings" in result.stdout


def test_cli_json_format(tmp_path):
    package = _write_violating_package(tmp_path)
    result = _run_lint(str(package), "--format", "json")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["version"] == 1
    assert report["summary"]["total"] >= 2


def test_cli_list_rules():
    result = _run_lint("--list-rules")
    assert result.returncode == 0
    for rule_id in EXPECTED_RULES:
        assert rule_id in result.stdout


def test_cli_fail_on_never_reports_but_passes(tmp_path):
    package = _write_violating_package(tmp_path)
    result = _run_lint(str(package), "--fail-on", "never")
    assert result.returncode == 0
    assert "LEAK001" in result.stdout


def test_cli_unknown_rule_id_is_usage_error():
    result = _run_lint("--select", "NOPE999")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


@pytest.mark.parametrize("flag", ["--select", "--ignore"])
def test_cli_deleted_or_mistyped_rule_id_is_usage_error(flag):
    # A script still passing an id of a deleted rule (or a typo such as
    # SRV01) must fail loudly instead of silently checking everything.
    for rule_id in (*DELETED_RULES, "SRV01"):
        result = _run_lint("src/repro", flag, rule_id)
        assert result.returncode == 2, (flag, rule_id)
        assert f"unknown rule id or pattern: {rule_id}" in result.stderr


def test_only_the_lint_command_loads_the_analyzer():
    # Every command builds the full parser, including the lint
    # subparser; that must not import the analyzer, rules or reporters.
    probe = textwrap.dedent(
        """
        import sys
        from repro.__main__ import _build_parser

        parser = _build_parser()
        parser.parse_args(["serve", "index.db"])
        try:
            parser.parse_args(["serve", "--help"])
        except SystemExit:
            pass
        print(sorted(m for m in sys.modules if m.startswith("repro.devtools")))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.strip().splitlines()[-1]
    assert loaded == "['repro.devtools', 'repro.devtools.cli']"


# -- regression net: every recorded in-tree finding -------------------------------

#: One minimal fixture per bug the linter found in this tree, shaped
#: like the code it was found in: (rule, module, source).  Deleting a
#: rule or a piece of analysis must never make one of these go silent.
TRUE_FINDINGS = {
    "det002-persistence-set-rows": (
        "DET002",
        "repro.core.persistence",
        """
        def original_term_rows(document_id, original_terms):
            rows = []
            for term in set(original_terms):
                rows.append((document_id, term))
            return rows
        """,
    ),
    "flow001-unvalidated-context-terms": (
        "FLOW001",
        "repro.resources.base",
        """
        class ExternalResource:
            def _query(self, term):
                return [term]

            def context_terms(self, term):
                terms = self._query(term)
                self._memory_put(term, terms)
                return terms
        """,
    ),
    "flow002-swallowed-close-failure": (
        "FLOW002",
        "repro.db.resource_cache",
        """
        import sqlite3

        class PersistentResourceCache:
            def close(self):
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
        """,
    ),
    "async001-healthz-probe-on-the-loop": (
        "ASYNC001",
        "repro.serving.app",
        """
        import sqlite3

        class FacetApp:
            async def _healthz(self):
                return self._probe()

            def _probe(self):
                return self._count(sqlite3.connect(self.path))

            def _count(self, connection):
                return connection
        """,
    ),
    "leak001-unshut-probe-executor": (
        "LEAK001",
        "repro.serving.app",
        """
        from concurrent.futures import ThreadPoolExecutor

        def probe(index):
            executor = ThreadPoolExecutor(max_workers=1)
            future = executor.submit(index.document_count)
            return future.result()
        """,
    ),
    "race002-connection-registry": (
        "RACE002",
        "repro.serving.artifact",
        """
        import threading

        class FacetIndex:
            def __init__(self):
                self._connections = []

            def start(self):
                threading.Thread(target=self._connection).start()

            def _connection(self):
                connection = object()
                self._connections.append(connection)
                return connection

            async def close(self):
                self._connections.clear()
        """,
    ),
    "schema001-manifest-posting-count": (
        "SCHEMA001",
        "repro.serving.artifact",
        """
        INDEX_SCHEMA = "repro.index/1"

        def build_manifest(documents, postings):
            return {
                "schema": INDEX_SCHEMA,
                "document_count": len(documents),
                "posting_count": len(postings),
            }

        def verify(manifest, documents):
            if manifest.get("schema") != INDEX_SCHEMA:
                return False
            return manifest["document_count"] == len(documents)
        """,
    ),
    "schema001-checkpoint-sequence": (
        "SCHEMA001",
        "repro.incremental.checkpoint",
        """
        CHECKPOINT_SCHEMA = "repro.incremental-checkpoint/1"

        def snapshot(state, sequence):
            return {"schema": CHECKPOINT_SCHEMA, "sequence": sequence, "state": state}

        def load(payload):
            if payload.get("schema") != CHECKPOINT_SCHEMA:
                raise ValueError("not a checkpoint")
            return payload["state"]
        """,
    ),
    "cfg002-unapplied-memory-cache-size": (
        "CFG002",
        "repro.config",
        """
        from dataclasses import dataclass

        @dataclass
        class ParallelConfig:
            workers: int = 1
            memory_cache_size: int = 4096

        def build(parallel):
            return parallel.workers
        """,
    ),
}


@pytest.mark.parametrize("case", sorted(TRUE_FINDINGS))
def test_every_recorded_true_finding_still_fires(case):
    rule_id, module, source = TRUE_FINDINGS[case]
    findings = Analyzer().analyze_source(
        textwrap.dedent(source),
        path=f"{module.replace('.', '/')}.py",
        module=module,
    )
    assert rule_id in rule_ids(findings), (case, findings)
