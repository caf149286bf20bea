"""The repo gates itself: a full lint run must report zero findings.

This is the in-repo twin of the CI lint job — any committed violation of
the determinism/invariant rule set fails tier-1 locally, not just CI.
"""

from __future__ import annotations

import pytest

from repro.lint import render_text, run_lint


@pytest.fixture(scope="module")
def report():
    """One full sweep of the repo, shared by every test below."""
    return run_lint()


class TestRepoIsLintClean:
    def test_full_run_has_zero_findings(self, report):
        assert report.findings == [], (
            "repo violates its own lint rules:\n" + render_text(report)
        )

    def test_full_run_covers_the_package_and_docs(self, report):
        assert report.files > 60  # src/repro modules + Markdown docs
        assert report.nodes > 10_000
        assert len(report.rules) >= 9
