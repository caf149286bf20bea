"""Documentation rules: docstring coverage, relative links, API drift.

DOC001 (public names carry docstrings), DOC002 (relative Markdown links
resolve) and DOC003 (docs/API.md matches the live docstrings) run in the
same driver as the code rules, so ``python -m repro lint`` covers code
and docs alike.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import Finding, LintContext, Rule, register

__all__ = ["DocstringRule", "LinkRule", "ApiReferenceRule"]


@register
class DocstringRule(Rule):
    """DOC001 — public API surface carries docstrings."""

    id = "DOC001"
    severity = "error"
    summary = "public module/class/function without a docstring"
    rationale = (
        "The repo's docs-by-construction stance (PR 3) requires every "
        "public name to explain itself; an undocumented helper is where "
        "the paper-to-code mapping goes dark. Exemptions are inline "
        "`# repro: noqa[DOC001]` on the def line, never a central list."
    )
    example_fix = (
        "add a one-line docstring, e.g. "
        "`\"\"\"Append one (x, y) point.\"\"\"`"
    )

    @staticmethod
    def _public_defs(body, prefix: str):
        """Yield (qualname, node) for public defs/classes in *body*,
        one level into classes but not into function bodies.  Defs
        nested in conditional statements (``if``/``try``/``match``/
        ``with`` blocks, e.g. version-gated fallbacks) are still part
        of the public surface and are descended into."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node
            elif isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node
                    yield from DocstringRule._public_defs(
                        node.body, f"{prefix}{node.name}."
                    )
            elif isinstance(node, ast.If):
                yield from DocstringRule._public_defs(node.body, prefix)
                yield from DocstringRule._public_defs(node.orelse, prefix)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody):
                    yield from DocstringRule._public_defs(block, prefix)
                for handler in node.handlers:
                    yield from DocstringRule._public_defs(
                        handler.body, prefix
                    )
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                yield from DocstringRule._public_defs(node.body, prefix)
            elif isinstance(node, ast.Match):
                for case in node.cases:
                    yield from DocstringRule._public_defs(case.body, prefix)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Require docstrings on the module and its public defs."""
        if ast.get_docstring(ctx.tree) is None:
            yield self.finding(
                ctx, 1, 0, "module has no docstring"
            )
        for qualname, node in self._public_defs(ctx.tree.body, ""):
            if ast.get_docstring(node) is None:
                kind = (
                    "class" if isinstance(node, ast.ClassDef)
                    else "function"
                )
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"public {kind} `{qualname}` has no docstring",
                )


_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
_CODE_SPAN = re.compile(r"`[^`]*`")


def _blank_code_spans(line: str) -> str:
    """Replace inline code spans with spaces (column-preserving).

    Example links quoted in backticks (as docs/LINTING.md does for the
    DOC002 example fix) are illustrations, not navigation.
    """
    return _CODE_SPAN.sub(lambda m: " " * len(m.group(0)), line)


@register
class LinkRule(Rule):
    """DOC002 — relative Markdown links resolve."""

    id = "DOC002"
    severity = "error"
    summary = "relative Markdown link whose target does not exist"
    rationale = (
        "README/docs are the paper-to-code map; a broken relative link "
        "is a silent hole in it. External links and in-page anchors are "
        "skipped — this is a structural check, not a crawler."
    )
    example_fix = (
        "`[bench gate](docs/BENCH.md)` -> fix the path or create the file"
    )
    targets = "markdown"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag relative link targets that resolve to nothing on disk."""
        base = (ctx.root / ctx.rel_path).parent
        in_fence = False
        for lineno, line in enumerate(ctx.lines, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in _LINK.finditer(_blank_code_spans(line)):
                target = match.group(1)
                if target.startswith(_SKIP_PREFIXES):
                    continue
                resolved = base / target.split("#", 1)[0]
                if not resolved.exists():
                    yield self.finding(
                        ctx, lineno, match.start(),
                        f"broken relative link -> {target}",
                    )


_API_HEADING = re.compile(r"^### `(repro[\w.]*)`$")


def _first_paragraph(doc: str | None) -> str:
    """The generator's docstring rendering (kept in lockstep with
    ``tools/gen_api_reference.py``)."""
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


@register
class ApiReferenceRule(Rule):
    """DOC003 — docs/API.md module sections match the live docstrings."""

    id = "DOC003"
    severity = "error"
    summary = "stale docs/API.md section vs the live module docstrings"
    rationale = (
        "docs/API.md is generated from docstrings by "
        "tools/gen_api_reference.py; once it drifts — a module added "
        "without a section, or a docstring rewritten without "
        "regenerating — the reference silently documents a codebase "
        "that no longer exists. This folds the drift check into the "
        "zero-findings gate like every other doc rule."
    )
    example_fix = (
        "run `python tools/gen_api_reference.py` (after adding new "
        "modules to its SECTIONS table)"
    )
    targets = "markdown"
    paths = ("docs/API.md",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Cross-check API.md headings against the parsed module tree."""
        package = ctx.root / "src" / "repro"
        if not package.is_dir():
            return
        from .symbols import build_symbol_table

        table = build_symbol_table(ctx.root)
        headings: dict[str, tuple[int, str]] = {}
        for lineno, line in enumerate(ctx.lines, start=1):
            match = _API_HEADING.match(line)
            if match is None:
                continue
            paragraph = ""
            for follow in ctx.lines[lineno:]:
                if follow.strip():
                    paragraph = follow.strip()
                    break
            headings[match.group(1)] = (lineno, paragraph)
        for name, (lineno, paragraph) in sorted(headings.items()):
            summary = table.modules.get(name)
            if summary is None:
                yield self.finding(
                    ctx, lineno, 0,
                    f"docs/API.md documents `{name}` but no such module "
                    "exists; regenerate with tools/gen_api_reference.py",
                )
                continue
            expected = _first_paragraph(summary.docstring)
            if paragraph != expected:
                yield self.finding(
                    ctx, lineno, 0,
                    f"docs/API.md section for `{name}` is stale (its "
                    "docstring changed); regenerate with "
                    "tools/gen_api_reference.py",
                )
        for name, summary in sorted(table.modules.items()):
            if summary.is_package or name.endswith("__main__"):
                continue
            if any(part.startswith("_") for part in name.split(".")):
                continue
            if name not in headings:
                yield self.finding(
                    ctx, 1, 0,
                    f"module `{name}` has no docs/API.md section; add it "
                    "to tools/gen_api_reference.py SECTIONS and "
                    "regenerate",
                )
