"""Rendering and baseline handling for lint reports.

Two output formats, both fully deterministic (no timestamps, sorted
findings, sorted JSON keys):

- **text** — one ``path:line:col RULE message`` line per finding plus a
  one-line summary, for humans and CI logs;
- **json** — a versioned document (``schema_version``,
  ``LINT_SCHEMA_VERSION``) with the finding list, per-rule counts and the
  files/nodes work measure, for machines and golden tests.

Baselines let a dirty repo adopt the gate incrementally: a baseline file
is a fingerprint→count multiset of known findings; :func:`apply_baseline`
subtracts it so only *new* findings fail the gate.  Fingerprints are
line-insensitive (``rule::path::message``) so unrelated edits that shift
lines do not churn the baseline.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter

from ..exceptions import ParameterError
from .engine import Finding, LintReport

__all__ = [
    "LINT_SCHEMA_VERSION",
    "render_text",
    "render_json",
    "make_baseline",
    "write_baseline",
    "load_baseline",
    "apply_baseline",
]

#: Version of the JSON report and baseline documents.
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


def make_baseline(report: LintReport) -> dict:
    """Baseline document: fingerprint→count multiset of *report* findings."""
    counts = Counter(f.fingerprint() for f in report.findings)
    return {
        "schema_version": LINT_SCHEMA_VERSION,
        "kind": "lint-baseline",
        "fingerprints": dict(sorted(counts.items())),
    }


def write_baseline(report: LintReport, path: pathlib.Path | str) -> None:
    """Serialize :func:`make_baseline` of *report* to *path*."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(make_baseline(report), indent=2, sort_keys=True) + "\n"
    )


def load_baseline(path: pathlib.Path | str) -> dict:
    """Read and validate a baseline document written by this module."""
    path = pathlib.Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read lint baseline {path}: {exc}")
    if doc.get("kind") != "lint-baseline":
        raise ParameterError(
            f"{path} is not a lint baseline (kind="
            f"{doc.get('kind')!r}); generate one with "
            "`python -m repro lint --write-baseline FILE`"
        )
    if doc.get("schema_version") != LINT_SCHEMA_VERSION:
        raise ParameterError(
            f"{path}: baseline schema_version "
            f"{doc.get('schema_version')!r} != {LINT_SCHEMA_VERSION}"
        )
    return doc


def apply_baseline(report: LintReport, baseline: dict) -> LintReport:
    """Return *report* minus findings covered by *baseline*.

    Matching is a per-fingerprint multiset subtraction: if the baseline
    records N findings with a fingerprint, the first N occurrences in the
    report are absorbed and any further ones stay — so a *new* instance
    of a known violation still fails the gate.
    """
    budget = Counter(baseline.get("fingerprints", {}))
    fresh: list[Finding] = []
    for finding in report.findings:
        key = finding.fingerprint()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    return LintReport(
        findings=fresh,
        files=report.files,
        nodes=report.nodes,
        rules=list(report.rules),
    )
