"""SARIF 2.1.0 output — the interchange format CI code-scanning speaks.

One ``run`` with the full rule catalog in ``tool.driver.rules`` (so
viewers can show summaries/hints for rules with zero results this run)
and one ``result`` per finding.  The document is **deterministic**:
no timestamps, no absolute paths, no environment capture — the same
findings always serialize to the same bytes, which is what lets CI
assert that two runs over the same tree are byte-identical.
"""

from __future__ import annotations

import json

from .findings import Finding, Severity
from .rules import Rule

__all__ = ["render_sarif", "SARIF_VERSION", "SARIF_SCHEMA_URI"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Severity → SARIF ``level``.
_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def _rule_descriptor(rule: Rule) -> dict:
    descriptor: dict = {
        "id": rule.rule_id,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": _LEVELS[rule.severity]},
    }
    if rule.hint:
        descriptor["help"] = {"text": rule.hint}
    if rule.scopes:
        descriptor["properties"] = {"scopes": list(rule.scopes)}
    return descriptor


def _location(path: str, region: dict) -> dict:
    uri = path.replace("\\", "/")
    return {"physicalLocation": {"artifactLocation": {"uri": uri}, "region": region}}


def render_sarif(
    findings: "list[Finding]", rules: "list[Rule] | None" = None
) -> str:
    """Findings as a SARIF 2.1.0 JSON document (stable byte output)."""
    descriptors = [_rule_descriptor(rule) for rule in rules or []]
    known = {descriptor["id"] for descriptor in descriptors}
    # Pseudo-rules that appear only in results (e.g. PARSE) still need
    # catalog entries so ruleIndex stays valid.
    for finding in findings:
        if finding.rule_id not in known:
            known.add(finding.rule_id)
            descriptors.append(
                {
                    "id": finding.rule_id,
                    "shortDescription": {"text": finding.rule_id},
                    "defaultConfiguration": {
                        "level": _LEVELS[finding.severity]
                    },
                }
            )
    index_of = {
        descriptor["id"]: index for index, descriptor in enumerate(descriptors)
    }
    results = []
    for finding in findings:
        message = finding.message
        if finding.hint:
            message = f"{message}. Hint: {finding.hint}"
        result = {
            "ruleId": finding.rule_id,
            "ruleIndex": index_of[finding.rule_id],
            "level": _LEVELS[finding.severity],
            "message": {"text": message},
            "locations": [
                _location(
                    finding.path,
                    {"startLine": finding.line, "startColumn": finding.col},
                )
            ],
        }
        if finding.trace:
            # Interprocedural findings carry their call/flow path; SARIF
            # renders it as one codeFlow with a single threadFlow.
            steps = [
                {
                    "location": {
                        **_location(step.path, {"startLine": step.line}),
                        "message": {"text": step.message},
                    }
                }
                for step in finding.trace
            ]
            result["codeFlows"] = [{"threadFlows": [{"locations": steps}]}]
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": "1.0.0",
                        "rules": descriptors,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=False)
