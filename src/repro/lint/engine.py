"""The lint engine: file discovery, rule registry, suppressions, reports.

Design
------

- **Rules are objects.**  Each rule subclasses :class:`Rule`, declares an
  ``id`` (``DET001`` ...), a ``severity``, one-line ``summary``, the
  ``rationale`` tying it to the invariant it protects (mirrored into
  ``docs/LINTING.md`` by a sync test), and an ``example_fix``.  Python
  rules get a parsed AST per file; Markdown rules get raw text.
- **One parse per file.**  The engine parses each source file once into a
  :class:`LintContext` and hands the same context to every applicable
  rule; the report counts the files and AST nodes it visited.
- **Inline suppressions.**  ``# repro: noqa[RULE]`` (comma-separated ids,
  optionally followed by a justification) suppresses findings of those
  rules on that physical line.  Suppressions are tracked: any that match
  no finding become ``NOQA001`` findings themselves, so stale allowlist
  entries surface instead of rotting.
- **Deterministic output.**  Findings sort by ``(path, line, col, rule)``
  and carry no timestamps, so text and JSON reports are golden-file
  comparable (see :mod:`repro.lint.report`).

The project-specific rule set registers itself on import (bottom of this
module); :data:`RULES` is the id-keyed registry the CLI and the
docs-sync test read.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..exceptions import ParameterError, ReproError

__all__ = [
    "Finding",
    "LintContext",
    "ObsCatalog",
    "LintReport",
    "Rule",
    "RULES",
    "register",
    "rule_ids",
    "default_root",
    "load_obs_catalog",
    "python_files",
    "markdown_files",
    "changed_files",
    "run_lint",
    "lint_text",
]

#: Severity levels a rule may declare, in increasing order of concern.
SEVERITIES = ("warning", "error")

#: Inline suppression syntax: a comment of the form ``repro: noqa[ID]``
#: (comma-separated ids, optional trailing justification after ``--``).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation, anchored to a file position.

    Ordering is ``(path, line, col, rule)`` so reports are deterministic.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form of the finding."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class ObsCatalog:
    """The declared observability surface, extracted *statically*.

    ``OBS001`` must not import the analyzed project (a linter that executes
    its target is neither fast nor side-effect free), so the metric and
    span names are pulled out of ``src/repro/obs/catalog.py`` by walking
    its AST: every ``MetricSpec("name", ...)`` call contributes a metric
    name and the ``SPANS = {...}`` dict literal contributes span names.
    """

    metric_names: frozenset[str]
    span_names: frozenset[str]

    @property
    def empty(self) -> bool:
        """True when no catalog file was found (OBS001 then stands down)."""
        return not self.metric_names and not self.span_names


def load_obs_catalog(root: pathlib.Path) -> ObsCatalog:
    """Extract the metric/span catalog under *root* without importing it."""
    path = root / "src" / "repro" / "obs" / "catalog.py"
    if not path.is_file():
        return ObsCatalog(frozenset(), frozenset())
    tree = ast.parse(path.read_text(), filename=str(path))
    metrics: set[str] = set()
    spans: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if (
                name == "MetricSpec"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                metrics.add(node.args[0].value)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign):
                targets = (
                    [node.target.id]
                    if isinstance(node.target, ast.Name)
                    else []
                )
            else:
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
            if "SPANS" in targets and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        spans.add(key.value)
    return ObsCatalog(frozenset(metrics), frozenset(spans))


@dataclass
class LintContext:
    """Everything a rule may inspect about one file (parsed once)."""

    rel_path: str
    source: str
    lines: list[str]
    tree: ast.AST | None
    root: pathlib.Path
    catalog: ObsCatalog


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes
    ----------
    id:
        Stable rule identifier (``DET001`` ...), used in reports, in
        ``--rules`` selection and in ``# repro: noqa[...]`` suppressions.
    severity:
        ``"error"`` (gates CI) or ``"warning"`` (reported, never gates).
    summary / rationale / example_fix:
        One-line description, the invariant the rule protects (with its
        paper/PR hook), and a representative fix — all mirrored into
        ``docs/LINTING.md`` by the docs-sync test.
    targets:
        ``"python"`` rules receive an AST; ``"markdown"`` rules receive
        raw document text.
    paths:
        Optional ``fnmatch`` patterns (on the repo-relative posix path)
        restricting where the rule applies; ``None`` means everywhere.
    engine_managed:
        True for rules the engine emits itself (``NOQA001``); their
        :meth:`check` is never called.
    """

    id: str = ""
    severity: str = "error"
    summary: str = ""
    rationale: str = ""
    example_fix: str = ""
    targets: str = "python"
    paths: tuple[str, ...] | None = None
    engine_managed: bool = False

    def applies_to(self, rel_path: str) -> bool:
        """Does this rule run on the file at *rel_path*?"""
        if self.paths is None:
            return True
        return any(fnmatch.fnmatch(rel_path, pat) for pat in self.paths)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one file; subclasses must override."""
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, line: int, col: int, message: str
    ) -> Finding:
        """Construct a finding carrying this rule's id and severity."""
        return Finding(
            path=ctx.rel_path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


#: The rule registry, keyed by rule id, in registration order.
RULES: dict[str, Rule] = {}


def register(rule_cls):
    """Register a :class:`Rule` subclass (decorator; ids must be unique)."""
    rule = rule_cls() if isinstance(rule_cls, type) else rule_cls
    if not rule.id:
        raise ParameterError(f"rule {rule!r} has no id")
    if rule.id in RULES:
        raise ParameterError(f"duplicate lint rule id {rule.id!r}")
    if rule.severity not in SEVERITIES:
        raise ParameterError(
            f"rule {rule.id}: severity must be one of {SEVERITIES}, "
            f"got {rule.severity!r}"
        )
    RULES[rule.id] = rule
    return rule_cls


def rule_ids() -> list[str]:
    """Registered rule ids, in registration order."""
    return list(RULES)


def default_root() -> pathlib.Path:
    """The repo root, derived from this package's location on disk."""
    return pathlib.Path(__file__).resolve().parents[3]


def python_files(root: pathlib.Path) -> list[pathlib.Path]:
    """Every Python file under ``src/repro``, sorted for determinism."""
    package = root / "src" / "repro"
    if not package.is_dir():
        raise ReproError(
            f"no src/repro package under {root}; pass an explicit root"
        )
    return sorted(package.rglob("*.py"))


#: Top-level Markdown files whose relative links must resolve (DOC002);
#: everything under ``docs/`` is added automatically.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md")


def markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    """The repo's linted Markdown set: :data:`DOC_FILES` plus ``docs/``."""
    files = [root / name for name in DOC_FILES if (root / name).is_file()]
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``files`` and ``nodes`` (AST nodes for Python files, scanned lines for
    Markdown) are the deterministic work measure the text report prints;
    ``findings`` is sorted by position.
    """

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    nodes: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        """Findings at ``error`` severity (the CI gate counts these)."""
        return [f for f in self.findings if f.severity == "error"]


def _resolve_rules(rules: Iterable[str] | None) -> list[Rule]:
    if rules is None:
        return [r for r in RULES.values() if not r.engine_managed]
    selected = []
    for rule_id in rules:
        if rule_id not in RULES:
            raise ParameterError(
                f"unknown lint rule {rule_id!r}; choose from {rule_ids()}"
            )
        if not RULES[rule_id].engine_managed:
            selected.append(RULES[rule_id])
    return selected


def _suppressions(source: str) -> dict[int, dict[str, bool]]:
    """Per-line suppression table: ``{line: {rule_id: used_flag}}``.

    Only genuine COMMENT tokens are scanned (via :mod:`tokenize`), so a
    docstring *describing* the suppression syntax never registers one.
    """
    table: dict[int, dict[str, bool]] = {}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        ids = [part.strip() for part in match.group(1).split(",")]
        lineno = token.start[0]
        table[lineno] = {rule_id: False for rule_id in ids if rule_id}
    return table


def _apply_suppressions(
    ctx: LintContext, findings: list[Finding], active: set[str]
) -> list[Finding]:
    """Filter suppressed findings; emit ``NOQA001`` for unused entries.

    Suppressions for rules outside *active* (the selected rule ids) are
    left alone: a ``--rules DOC001`` run must not report the repo's
    DET002 annotations as stale.
    """
    table = _suppressions(ctx.source)
    kept: list[Finding] = []
    for finding in findings:
        entry = table.get(finding.line)
        if entry is not None and finding.rule in entry:
            entry[finding.rule] = True
        else:
            kept.append(finding)
    for lineno in sorted(table):
        for rule_id, used in table[lineno].items():
            if used or rule_id not in active:
                continue
            kept.append(
                Finding(
                    path=ctx.rel_path,
                    line=lineno,
                    col=0,
                    rule="NOQA001",
                    message=(
                        f"suppression for {rule_id} matched no finding; "
                        "remove the stale `# repro: noqa` annotation"
                    ),
                    severity=RULES["NOQA001"].severity,
                )
            )
    return kept


def _lint_context(
    rel_path: str,
    source: str,
    root: pathlib.Path,
    catalog: ObsCatalog,
    parse: bool,
) -> LintContext:
    tree = None
    if parse:
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            raise ReproError(
                f"{rel_path}: cannot lint, file does not parse: {exc}"
            ) from exc
    return LintContext(
        rel_path=rel_path,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        root=root,
        catalog=catalog,
    )


def _check_file(
    ctx: LintContext, rules: list[Rule], target: str
) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        if rule.targets != target or not rule.applies_to(ctx.rel_path):
            continue
        findings.extend(rule.check(ctx))
    if target == "python":
        active = {r.id for r in rules if r.applies_to(ctx.rel_path)}
        findings = _apply_suppressions(ctx, findings, active)
    return findings


def run_lint(
    root: pathlib.Path | str | None = None,
    rules: Iterable[str] | None = None,
    paths: Iterable[pathlib.Path | str] | None = None,
) -> LintReport:
    """Lint the repo at *root* (default: this checkout) and report.

    *rules* selects a subset of rule ids (default: every registered rule);
    *paths* overrides file discovery with an explicit list (each entry is
    reported relative to *root*).  Python rules run on ``src/repro``
    modules, Markdown rules on the :func:`markdown_files` doc set.
    """
    root = pathlib.Path(root) if root is not None else default_root()
    selected = _resolve_rules(rules)
    catalog = load_obs_catalog(root)

    if paths is None:
        py_files = (
            python_files(root)
            if any(r.targets == "python" for r in selected)
            else []
        )
        md_files = (
            markdown_files(root)
            if any(r.targets == "markdown" for r in selected)
            else []
        )
    else:
        resolved = [pathlib.Path(p) for p in paths]
        py_files = [p for p in resolved if p.suffix == ".py"]
        md_files = [p for p in resolved if p.suffix == ".md"]

    report = LintReport(rules=[r.id for r in selected])
    for path in py_files:
        source = path.read_text()
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        ctx = _lint_context(rel, source, root, catalog, parse=True)
        report.files += 1
        report.nodes += sum(1 for _ in ast.walk(ctx.tree))
        report.findings.extend(_check_file(ctx, selected, "python"))
    for path in md_files:
        source = path.read_text()
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        ctx = _lint_context(rel, source, root, catalog, parse=False)
        report.files += 1
        report.nodes += len(ctx.lines)
        report.findings.extend(_check_file(ctx, selected, "markdown"))
    report.findings.sort()
    return report


def lint_text(
    source: str,
    rel_path: str = "src/repro/module.py",
    root: pathlib.Path | str | None = None,
    rules: Iterable[str] | None = None,
    catalog: ObsCatalog | None = None,
) -> LintReport:
    """Lint one Python source string as if it lived at *rel_path*.

    The unit-test entry point: rules whose ``paths`` scope depends on the
    location (``DET004``, ``FLT001``) can be exercised by choosing
    *rel_path* accordingly.  *catalog* overrides the OBS001 catalog
    (default: extracted from *root*).
    """
    root = pathlib.Path(root) if root is not None else default_root()
    if catalog is None:
        catalog = load_obs_catalog(root)
    selected = _resolve_rules(rules)
    ctx = _lint_context(rel_path, source, root, catalog, parse=True)
    report = LintReport(rules=[r.id for r in selected], files=1)
    report.nodes = sum(1 for _ in ast.walk(ctx.tree))
    report.findings.extend(_check_file(ctx, selected, "python"))
    report.findings.sort()
    return report


def changed_files(root: pathlib.Path | str | None = None) -> list[pathlib.Path]:
    """Lintable files changed versus the merge-base with ``main``.

    The fast pre-push loop behind ``repro lint --changed-only``: asks git
    for the merge-base of ``HEAD`` with ``origin/main`` (falling back to
    a local ``main``), diffs the worktree against it, adds untracked
    files, and keeps only paths the lint engine would discover anyway
    (``src/repro`` Python plus the Markdown doc set).
    """
    import subprocess

    root = pathlib.Path(root) if root is not None else default_root()

    def _git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True
        )

    base = None
    for ref in ("origin/main", "main"):
        proc = _git("merge-base", "HEAD", ref)
        if proc.returncode == 0:
            base = proc.stdout.strip()
            break
    if base is None:
        raise ReproError(
            f"cannot find a merge-base with main under {root}; "
            "--changed-only needs a git checkout with a main branch"
        )
    names: set[str] = set()
    diff = _git("diff", "--name-only", base)
    if diff.returncode != 0:
        raise ReproError(f"git diff failed under {root}: {diff.stderr.strip()}")
    names.update(line for line in diff.stdout.splitlines() if line)
    untracked = _git("ls-files", "--others", "--exclude-standard")
    if untracked.returncode == 0:
        names.update(line for line in untracked.stdout.splitlines() if line)

    lintable = {p.resolve() for p in python_files(root)}
    lintable.update(p.resolve() for p in markdown_files(root))
    changed = []
    for name in sorted(names):
        path = (root / name).resolve()
        if path.exists() and path in lintable:
            changed.append(root / name)
    return changed


# Register the project rule set (imports at the bottom so the modules can
# import this one for the Rule base class without a cycle).
from . import docrules as _docrules  # noqa: E402,F401
from . import rules as _rules  # noqa: E402,F401
