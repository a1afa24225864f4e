"""BENCH-LINT — one cold run of the whole-program analyzer over src/repro.

The analyzer keeps no result cache: every run parses the tree, builds
the project model and runs every rule.  This benchmark reports what that
costs — wall time, per-rule milliseconds and findings — and checks the
property CI's ``cmp`` steps rely on: two runs over the same tree emit
byte-identical SARIF and contract files.
"""

import json
import time
from pathlib import Path

from repro.devtools.analyzer import AnalysisStats, Analyzer
from repro.devtools.contracts import CONTRACTS_SCHEMA
from repro.devtools.sarif import render_sarif


def _cold_run(analyzer: Analyzer, src: Path):
    stats = AnalysisStats()
    contracts: dict = {}
    start = time.perf_counter()
    findings = analyzer.analyze_paths([src], stats=stats, contracts_out=contracts)
    return findings, stats, contracts, time.perf_counter() - start


def test_lint_cold_run(benchmark, save_result, save_json):
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    analyzer = Analyzer()

    findings, stats, contracts, wall_s = benchmark.pedantic(
        _cold_run, args=(analyzer, src), rounds=1, iterations=1
    )
    again, _, contracts_again, _ = _cold_run(analyzer, src)

    rules = sorted(stats.rule_seconds, key=lambda r: -stats.rule_seconds[r])
    save_result(
        "lint_cold",
        "\n".join(
            [
                "repro lint: cold run over src/repro",
                f"  files analyzed   {stats.files_total}",
                f"  wall time        {wall_s * 1000:8.1f} ms",
                *(
                    f"  {rule_id:<10}       {stats.rule_seconds[rule_id] * 1000:8.1f} ms"
                    f"  {stats.rule_findings.get(rule_id, 0)} finding(s)"
                    for rule_id in rules
                ),
                f"  findings         {len(findings)}",
            ]
        ),
    )
    save_json(
        "lint_cold",
        {
            "schema": "repro.bench_lint/2",
            "files_total": stats.files_total,
            "wall_s": wall_s,
            "rule_ms": {
                rule_id: stats.rule_seconds[rule_id] * 1000 for rule_id in rules
            },
            "rule_findings": {
                rule_id: stats.rule_findings.get(rule_id, 0) for rule_id in rules
            },
            "findings": len(findings),
        },
    )

    # Every registered rule ran on the tree.
    assert set(stats.rule_seconds) == {rule.rule_id for rule in analyzer.rules}
    # Run-to-run byte identity: the property CI's cmp steps gate on.
    assert again == findings
    assert render_sarif(again, analyzer.rules) == render_sarif(findings, analyzer.rules)
    assert json.dumps(contracts_again, sort_keys=True) == json.dumps(
        contracts, sort_keys=True
    )
    assert contracts.get("schema") == CONTRACTS_SCHEMA
