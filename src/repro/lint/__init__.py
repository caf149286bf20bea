"""``repro.lint`` — determinism & invariant static analysis for this repo.

The paper's claims are validated here by bit-identical, seed-exact
experiments: serial/parallel equivalence (PR 1), deterministic fault
injection (PR 2), RNG-inert observability (PR 3) and an exact logical-cost
bench gate (PR 4) all rest on invariants like "no unseeded randomness",
"no wall-clock in logic paths" and "every metric name is declared".  This
package makes those invariants *statically checkable* before any test
runs: an AST-based engine (:mod:`repro.lint.engine`) walks every module
under ``src/repro`` (plus the repo's Markdown docs) and applies a
project-specific rule set (:mod:`repro.lint.rules`,
:mod:`repro.lint.docrules`), while the whole-program flow layer
(:mod:`repro.lint.symbols` → :mod:`repro.lint.callgraph` →
:mod:`repro.lint.flowrules`) tracks seed provenance and lock balance
across module boundaries.

Entry points
------------

- ``python -m repro lint [--format text|json] [--rules ...]
  [--baseline FILE] [--flow] [--graph FILE] [--changed-only]`` — the CLI
  gate (see :mod:`repro.cli`);
- :func:`run_lint` — lint the repo (or an explicit file list) in-process;
- :func:`lint_text` — lint one source string under a chosen relative path
  (how the rule unit tests drive single fixtures);
- :func:`changed_files` — the git-diff file set behind ``--changed-only``.

Suppressions are inline: ``# repro: noqa[DET002]`` on the offending line,
optionally followed by a justification.  Suppressions that match no
finding are themselves reported (rule ``NOQA001``), so the allowlist can
never rot.  The rule catalog is documented in ``docs/LINTING.md``, kept in
lockstep by ``tests/lint/test_docs_sync.py``.
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintReport,
    Rule,
    RULES,
    changed_files,
    default_root,
    lint_text,
    rule_ids,
    run_lint,
)
from .report import (
    LINT_SCHEMA_VERSION,
    apply_baseline,
    load_baseline,
    make_baseline,
    render_json,
    render_text,
    write_baseline,
)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "RULES",
    "rule_ids",
    "run_lint",
    "lint_text",
    "changed_files",
    "default_root",
    "LINT_SCHEMA_VERSION",
    "render_text",
    "render_json",
    "make_baseline",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]
