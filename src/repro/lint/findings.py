"""Structured lint output: severities, findings, and the report.

A :class:`Finding` is one diagnosed problem — rule id, severity, a
location string (``job:x``, ``file:y``, ``edge:a->b``, ``site:osg``,
``platform:osg``, ``workflow``), a human message, and an optional fix
hint. A :class:`Report` aggregates the findings of one lint run plus
the rules that were skipped for lack of context (e.g. catalog rules
when no catalogs were given), and renders as text (mirroring
``wms.analyzer.render_analysis``) or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Severity", "Finding", "Report", "render_report"]


class Severity(Enum):
    """How bad a finding is.

    ERROR findings make the planner's preflight fail (``lint="error"``);
    WARNING marks configurations that run but waste cycles or risk
    retry exhaustion; INFO is stylistic.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def order(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem."""

    rule: str
    severity: Severity
    location: str
    message: str
    fix_hint: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass
class Report:
    """The result of linting one workflow."""

    workflow: str
    findings: list[Finding] = field(default_factory=list)
    #: rule ids that did not run because their required context
    #: (catalogs, site, planned DAG) was not provided
    skipped_rules: list[str] = field(default_factory=list)
    #: rule ids that ran (clean or not)
    checked_rules: list[str] = field(default_factory=list)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def infos(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.INFO]

    def by_rule(self, rule_id: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule_id]

    @property
    def ok(self) -> bool:
        """True when no ERROR findings (warnings allowed)."""
        return not self.errors()

    @property
    def verdict(self) -> str:
        if not self.findings:
            return (
                f"clean ({len(self.checked_rules)} rules checked)"
            )
        return (
            f"{len(self.errors())} error(s), {len(self.warnings())} "
            f"warning(s), {len(self.infos())} info"
        )

    def sort(self) -> None:
        """Severity-major ordering, then rule id, then location."""
        self.findings.sort(
            key=lambda f: (
                f.severity.order,
                f.rule,
                f.location,
                f.message,
            )
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "workflow": self.workflow,
            "verdict": self.verdict,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "checked_rules": self.checked_rules,
            "skipped_rules": self.skipped_rules,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def render_report(report: Report) -> str:
    """Human-readable lint output (the ``repro-lint`` text renderer)."""
    lines = [
        "************************************",
        f"* lint: {report.workflow}: {report.verdict}",
        "************************************",
    ]
    for f in report.findings:
        lines.append(
            f"{f.severity.value.upper():7s} {f.rule}  "
            f"[{f.location}] {f.message}"
        )
        if f.fix_hint:
            lines.append(f"        hint: {f.fix_hint}")
    if report.skipped_rules:
        lines.append(
            "rules skipped (context not given): "
            + ", ".join(report.skipped_rules)
        )
    return "\n".join(lines)
