"""``python -m repro lint`` — the static-analysis CLI surface.

Exit codes: 0 when no finding reaches the ``--fail-on`` threshold,
1 when at least one does, 2 on bad usage (unknown rule ids or patterns).

Building the parser imports nothing else from :mod:`repro.devtools`:
every ``python -m repro`` command builds the ``lint`` subparser, and
only ``lint`` itself should pay for loading the analyzer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_EXIT_CODES_EPILOG = """\
exit codes:
  0  no finding at or above --fail-on (or --fail-on never)
  1  at least one finding at or above --fail-on
  2  usage error (unknown rule id or pattern)
"""


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a (sub)parser."""
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = _EXIT_CODES_EPILOG
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or globs to run "
        "(e.g. FLOW001 or 'FLOW*,DET*'; default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or globs to skip",
    )
    parser.add_argument(
        "--fail-on",
        default="warning",
        choices=["info", "warning", "error", "never"],
        help="lowest severity that fails the run (default: warning)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule timing to stderr",
    )
    parser.add_argument(
        "--contracts-out",
        default=None,
        metavar="FILE",
        help="write the extracted contract database to FILE as "
        "deterministic JSON",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules (grouped by family) and exit",
    )


def _split_ids(raw: str | None) -> "set[str] | None":
    if raw is None:
        return None
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


def list_rules() -> str:
    """Rules grouped by family, with scope and project/module kind.

    Family headers are data-driven: each family's description is the
    first nonempty ``Rule.family_description`` among its members (id
    order), so a new rule family registers its own group header.
    """
    from .rules import all_rules

    by_family: dict[str, list] = {}
    for rule in all_rules():
        family = rule.rule_id.rstrip("0123456789") or rule.rule_id
        by_family.setdefault(family, []).append(rule)
    lines = []
    for family in sorted(by_family):
        description = next(
            (r.family_description for r in by_family[family] if r.family_description),
            "",
        )
        lines.append(f"{family} — {description}" if description else family)
        for rule in by_family[family]:
            scope = ", ".join(rule.scopes) if rule.scopes else "all modules"
            kind = "project" if rule.requires_project else "module"
            lines.append(
                f"  {rule.rule_id:<10} [{rule.severity.label:<7}] ({kind}) "
                f"{rule.summary}  (scope: {scope})"
            )
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    from .analyzer import AnalysisStats, Analyzer
    from .findings import Severity
    from .reporting import render_json, render_text
    from .sarif import render_sarif

    if args.list_rules:
        print(list_rules())
        return 0
    try:
        analyzer = Analyzer(
            select=_split_ids(args.select), ignore=_split_ids(args.ignore)
        )
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    stats = AnalysisStats()
    contracts_out: "dict | None" = {} if args.contracts_out else None
    findings = analyzer.analyze_paths(
        list(args.paths), stats=stats, contracts_out=contracts_out
    )
    if contracts_out is not None:
        Path(args.contracts_out).write_text(
            json.dumps(contracts_out, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    if args.output_format == "json":
        report = render_json(findings)
    elif args.output_format == "sarif":
        report = render_sarif(findings, analyzer.rules)
    else:
        report = render_text(findings)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    if args.stats:
        print(stats.render(), file=sys.stderr)

    if args.fail_on == "never":
        return 0
    threshold = Severity[args.fail_on.upper()]
    return 1 if any(f.severity >= threshold for f in findings) else 0
