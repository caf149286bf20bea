"""Documentation rules: docstring coverage and relative links.

DOC001 (public names carry docstrings) and DOC002 (relative Markdown
links resolve) run in the same driver as the code rules, so ``python -m
repro lint`` covers code and docs alike.  Whether docs/API.md matches
its generator is a tier-1 test (``tests/test_api.py``), not a rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import Finding, LintContext, Rule, register

__all__ = ["DocstringRule", "LinkRule"]


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
