"""Finding records produced by the static analyzer."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """How serious a finding is; ordering is by blocking strength."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One hop of an interprocedural finding's explanation path.

    Interprocedural rules (ASYNC001, RACE002) report *where* the bad
    call chain starts, but the chain itself is what makes the finding
    believable; each step names one location along it.  Rendered as a
    SARIF ``codeFlow`` by :mod:`repro.devtools.sarif`.
    """

    path: str
    line: int
    message: str

    def to_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "message": self.message}


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str
    hint: str = ""
    trace: "tuple[TraceStep, ...]" = ()

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        """``path:line:col: RULE [severity] message`` (single line)."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.label}] {self.message}"
        )
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "severity": self.severity.label,
            "message": self.message,
            "hint": self.hint,
        }
        if self.trace:
            payload["trace"] = [step.to_dict() for step in self.trace]
        return payload
