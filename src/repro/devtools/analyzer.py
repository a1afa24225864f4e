"""The analyzer: module rules per file, project rules per program.

The analyzer is pure — it never imports the code under analysis, only
parses it — so it is safe to point at arbitrary trees (the CI job, the
test fixtures' temp packages, a contributor's work in progress).

Module rules run per file; project rules (``requires_project``) run
once over a :class:`~repro.devtools.project.ProjectModel` built from
every parsed module.  ``# repro: noqa[...]`` suppression applies to
both; project-rule findings are mapped back to their module's context
for the check.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext, python_files
from .contracts import contracts_for
from .findings import Finding, Severity
from .project import ProjectModel
from .rules import Rule, all_rules, expand_rule_patterns

#: Pseudo rule id attached to files the parser rejects.
PARSE_ERROR = "PARSE"


@dataclass
class AnalysisStats:
    """Where an analyzer run spent its time."""

    files_total: int = 0
    duration_s: float = 0.0
    rule_seconds: dict[str, float] = field(default_factory=dict)
    rule_findings: dict[str, int] = field(default_factory=dict)

    def record(self, rule_id: str, seconds: float, findings: int) -> None:
        self.rule_seconds[rule_id] = self.rule_seconds.get(rule_id, 0.0) + seconds
        self.rule_findings[rule_id] = (
            self.rule_findings.get(rule_id, 0) + findings
        )

    def render(self) -> str:
        """Human-readable summary for ``repro lint --stats``."""
        lines = [f"files: {self.files_total}"]
        for rule_id in sorted(
            self.rule_seconds, key=lambda r: -self.rule_seconds[r]
        ):
            lines.append(
                f"  {rule_id:<10} {self.rule_seconds[rule_id] * 1000:8.1f} ms"
                f"  {self.rule_findings.get(rule_id, 0):>4} finding(s)"
            )
        lines.append(f"total: {self.duration_s * 1000:.1f} ms")
        return "\n".join(lines)


class Analyzer:
    """Runs a ruleset over source files, modules, or whole trees.

    ``rules`` defaults to the full registry; ``select``/``ignore`` take
    rule ids or fnmatch globs (``FLOW*``) and raise :class:`ValueError`
    on a pattern that matches no registered rule.
    """

    def __init__(
        self,
        rules: "list[Rule] | None" = None,
        select: "set[str] | None" = None,
        ignore: "set[str] | None" = None,
    ) -> None:
        chosen = list(rules) if rules is not None else all_rules()
        if select is not None:
            wanted = expand_rule_patterns({rule_id.upper() for rule_id in select})
            chosen = [rule for rule in chosen if rule.rule_id in wanted]
        if ignore is not None:
            dropped = expand_rule_patterns({rule_id.upper() for rule_id in ignore})
            chosen = [rule for rule in chosen if rule.rule_id not in dropped]
        self.rules = chosen
        self.module_rules = [r for r in chosen if not r.requires_project]
        self.project_rules = [r for r in chosen if r.requires_project]

    def analyze_paths(
        self,
        paths: "list[str | Path]",
        stats: "AnalysisStats | None" = None,
        contracts_out: "dict | None" = None,
    ) -> list[Finding]:
        """Analyze files and/or directory trees (``*.py``, sorted).

        When ``contracts_out`` is a dict, it is filled in place with the
        extracted contracts payload for the analyzed tree.
        """
        stats = stats if stats is not None else AnalysisStats()
        started = time.perf_counter()
        findings: list[Finding] = []
        contexts: list[ModuleContext] = []
        for file_path in python_files(paths):
            stats.files_total += 1
            key = str(file_path)
            try:
                text = file_path.read_bytes().decode("utf-8", errors="replace")
                contexts.append(ModuleContext(text, path=key))
            except OSError as exc:
                findings.append(_parse_failure(key, 1, f"unreadable: {exc}"))
            except SyntaxError as exc:
                findings.append(
                    _parse_failure(key, exc.lineno or 1, f"syntax error: {exc.msg}")
                )
        findings.extend(self._run(contexts, stats, contracts_out))
        stats.duration_s = time.perf_counter() - started
        return sorted(findings, key=Finding.sort_key)

    def analyze_source(
        self,
        source: str,
        path: str = "<string>",
        module: str | None = None,
    ) -> list[Finding]:
        """Analyze one module given as text.

        ``module`` overrides the dotted name inferred from the package
        layout on disk — rule scoping keys off it.  Project rules run
        over a single-module project model, so cross-module edges are
        absent but same-module flow analysis works.
        """
        try:
            ctx = ModuleContext(source, path=path, module=module)
        except SyntaxError as exc:
            return [_parse_failure(path, exc.lineno or 1, f"syntax error: {exc.msg}")]
        return sorted(self._run([ctx], AnalysisStats()), key=Finding.sort_key)

    def _run(
        self,
        contexts: "list[ModuleContext]",
        stats: AnalysisStats,
        contracts_out: "dict | None" = None,
    ) -> list[Finding]:
        by_path = {ctx.path: ctx for ctx in contexts}
        findings: list[Finding] = []

        def collect(rule: Rule, produced: "Iterable[Finding]") -> None:
            started = time.perf_counter()
            kept = []
            for finding in produced:
                ctx = by_path.get(finding.path)
                if ctx is None or not ctx.is_suppressed(finding.line, finding.rule_id):
                    kept.append(finding)
            stats.record(rule.rule_id, time.perf_counter() - started, len(kept))
            findings.extend(kept)

        for ctx in contexts:
            for rule in self.module_rules:
                if rule.applies_to(ctx.module):
                    collect(rule, rule.check(ctx))
        if self.project_rules or contracts_out is not None:
            project = ProjectModel(contexts)
            for rule in self.project_rules:
                collect(rule, rule.check_project(project))
            if contracts_out is not None:
                contracts_out.clear()
                contracts_out.update(contracts_for(project).to_payload())
        return findings


def _parse_failure(path: str, line: int, message: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=1,
        rule_id=PARSE_ERROR,
        severity=Severity.ERROR,
        message=message,
        hint="fix the file so it parses; analysis skipped it",
    )
