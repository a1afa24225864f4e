"""SARIF output and the lint CLI surface."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools.analyzer import Analyzer
from repro.devtools.findings import Finding, Severity, TraceStep
from repro.devtools.sarif import render_sarif

REPO = Path(__file__).resolve().parent.parent

#: A repro.core module with one DET002 finding.
_DIRTY = textwrap.dedent(
    """
    def f(xs):
        s = set(xs)
        return [x for x in s]
    """
)


def _core_tree(tmp_path: Path, source: str = _DIRTY) -> Path:
    """A fake ``repro/core`` package so scoped rules engage.

    Nested under ``pkg/`` so a subprocess cwd of ``tmp_path`` never
    shadows the real ``repro`` package on ``sys.path``.
    """
    root = tmp_path / "pkg" / "repro"
    core = root / "core"
    core.mkdir(parents=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    (core / "__init__.py").write_text("", encoding="utf-8")
    (core / "stage.py").write_text(source, encoding="utf-8")
    return root


def _run_lint(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def _finding(path="a.py", line=1, rule="FLOW001", message="m") -> Finding:
    return Finding(
        path=path,
        line=line,
        col=1,
        rule_id=rule,
        severity=Severity.ERROR,
        message=message,
    )


# -- SARIF --------------------------------------------------------------------------


def test_sarif_document_structure_and_rule_index():
    findings = [
        _finding(rule="FLOW001", message="taint"),
        _finding(rule="PARSE", message="syntax error"),
    ]
    rules = Analyzer().rules
    document = json.loads(render_sarif(findings, rules))
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    run = document["runs"][0]
    catalog = run["tool"]["driver"]["rules"]
    ids = [rule["id"] for rule in catalog]
    assert "FLOW001" in ids and "PARSE" in ids
    for result in run["results"]:
        assert catalog[result["ruleIndex"]]["id"] == result["ruleId"]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1


def test_sarif_severity_levels_map():
    rows = [
        (Severity.ERROR, "error"),
        (Severity.WARNING, "warning"),
        (Severity.INFO, "note"),
    ]
    for severity, level in rows:
        finding = Finding(
            path="a.py", line=1, col=1, rule_id="X001",
            severity=severity, message="m",
        )
        document = json.loads(render_sarif([finding], []))
        assert document["runs"][0]["results"][0]["level"] == level


def test_sarif_output_is_deterministic():
    findings = [_finding(rule="FLOW001"), _finding(rule="DET002", line=2)]
    rules = Analyzer().rules
    assert render_sarif(findings, rules) == render_sarif(findings, rules)


def test_sarif_code_flows_carry_the_finding_trace():
    trace = (
        TraceStep(path="a.py", line=3, message="coroutine view runs on the loop"),
        TraceStep(path="a.py", line=8, message="view calls helper"),
        TraceStep(path="b.py", line=2, message="time.sleep() blocks"),
    )
    with_trace = Finding(
        path="a.py", line=3, col=5, rule_id="ASYNC001",
        severity=Severity.ERROR, message="blocking call", trace=trace,
    )
    plain = _finding(rule="DET002")
    document = json.loads(render_sarif([with_trace, plain], []))
    results = document["runs"][0]["results"]
    flows = results[0]["codeFlows"]
    locations = flows[0]["threadFlows"][0]["locations"]
    assert len(locations) == len(trace)
    for step, entry in zip(trace, locations):
        physical = entry["location"]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == step.path
        assert physical["region"]["startLine"] == step.line
        assert entry["location"]["message"]["text"] == step.message
    # Trace-free findings must not grow an empty codeFlows key.
    assert "codeFlows" not in results[1]


# -- CLI surface --------------------------------------------------------------------


def test_cli_list_rules_groups_by_family(tmp_path):
    result = _run_lint("--list-rules", cwd=REPO)
    assert result.returncode == 0
    assert "FLOW — data-flow (taint) invariants" in result.stdout
    assert "DET — determinism" in result.stdout
    assert "(project)" in result.stdout


def test_cli_select_glob_runs_family(tmp_path):
    tree = _core_tree(tmp_path)
    result = _run_lint(
        "--select", "DET*", str(tree), cwd=tmp_path
    )
    assert result.returncode == 1
    assert "DET002" in result.stdout


def test_cli_unknown_select_pattern_exits_2(tmp_path):
    result = _run_lint("--select", "NOPE*", ".", cwd=tmp_path)
    assert result.returncode == 2
    assert "unknown rule id or pattern" in result.stderr


def test_cli_sarif_output_file(tmp_path):
    tree = _core_tree(tmp_path)
    result = _run_lint(
        str(tree), "--format", "sarif",
        "--output", "out.sarif", "--fail-on", "never",
        cwd=tmp_path,
    )
    assert result.returncode == 0
    document = json.loads((tmp_path / "out.sarif").read_text(encoding="utf-8"))
    assert document["runs"][0]["results"][0]["ruleId"] == "DET002"


def test_cli_two_runs_are_byte_identical(tmp_path):
    tree = _core_tree(tmp_path)
    argv = (str(tree), "--format", "sarif", "--fail-on", "never", "--stats")
    first = _run_lint(*argv, cwd=tmp_path)
    second = _run_lint(*argv, cwd=tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert "files: 3" in first.stderr
