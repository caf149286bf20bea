"""Rendering of lint reports.

Two output formats, both fully deterministic (no timestamps, sorted
findings, sorted JSON keys):

- **text** — one ``path:line:col RULE message`` line per finding plus a
  one-line summary, for humans and CI logs;
- **json** — a versioned document (``schema_version``,
  ``LINT_SCHEMA_VERSION``) with the finding list, per-rule counts and the
  files/nodes work measure, for machines and golden tests.
"""

from __future__ import annotations

import json
from collections import Counter

from .engine import LintReport

__all__ = [
    "LINT_SCHEMA_VERSION",
    "render_text",
    "render_json",
]

#: Version of the JSON report document.
LINT_SCHEMA_VERSION = 1


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col} {f.rule} [{f.severity}] {f.message}"
        for f in report.findings
    ]
    if report.findings:
        by_rule = Counter(f.rule for f in report.findings)
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"\n{len(report.findings)} finding(s) across "
            f"{report.files} file(s) ({breakdown})"
        )
    else:
        lines.append(
            f"lint OK ({report.files} files, {report.nodes} nodes, "
            f"{len(report.rules)} rules)"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, trailing newline)."""
    by_rule = Counter(f.rule for f in report.findings)
    doc = {
        "schema_version": LINT_SCHEMA_VERSION,
        "kind": "lint",
        "rules": report.rules,
        "files": report.files,
        "nodes": report.nodes,
        "findings": [f.to_dict() for f in report.findings],
        "counts": {
            "total": len(report.findings),
            "errors": len(report.errors),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
