"""Engine-level behaviour: suppressions, baselines, reports, golden JSON.

Covers the machinery around the rules: inline ``# repro: noqa[...]``
handling (suppression, justification text, stale-suppression NOQA001,
rule-subset scoping), baseline diffing (multiset semantics, round-trip,
validation), deterministic rendering (text + schema-versioned JSON), and
a golden full-run over the fixture mini-repo.

Regenerate the golden report after intentional changes with
``REPRO_REGEN_GOLDEN=1`` (see the ``golden`` fixture in the root conftest).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exceptions import ParameterError
from repro.lint import (
    LINT_SCHEMA_VERSION,
    RULES,
    apply_baseline,
    lint_text,
    load_baseline,
    make_baseline,
    render_json,
    render_text,
    rule_ids,
    run_lint,
    write_baseline,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "report.json"


class TestRegistry:
    def test_expected_rules_registered(self):
        assert set(rule_ids()) == {
            "DET001", "DET002", "DET003", "DET004",
            "OBS001", "EXC001", "EXC002", "EXC003", "FLT001",
            "DOC001", "DOC002", "NOQA001",
        }

    def test_every_rule_is_described(self):
        for rule in RULES.values():
            assert rule.summary, f"{rule.id} has no summary"
            assert rule.rationale, f"{rule.id} has no rationale"
            assert rule.example_fix, f"{rule.id} has no example fix"
            assert rule.severity in ("warning", "error")

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(ParameterError, match="unknown lint rule"):
            run_lint(root=FIXTURES, rules=["DET999"])


class TestSuppressions:
    def test_noqa_suppresses_on_the_finding_line(self):
        src = (
            '"""m."""\nimport time\n'
            "_T = time.time()  # repro: noqa[DET002] -- test fixture\n"
        )
        assert lint_text(src, root=FIXTURES).findings == []

    def test_unsuppressed_line_still_flagged(self):
        src = (
            '"""m."""\nimport time\n'
            "_A = time.time()  # repro: noqa[DET002]\n"
            "_B = time.time()\n"
        )
        report = lint_text(src, root=FIXTURES)
        assert [(f.rule, f.line) for f in report.findings] == [("DET002", 4)]

    def test_multiple_ids_in_one_annotation(self):
        src = (
            '"""m."""\nimport time\n'
            "_T = sum([time.time()])  # repro: noqa[DET002, DET004]\n"
        )
        report = lint_text(
            src, rel_path="src/repro/obs/x.py", root=FIXTURES
        )
        assert report.findings == []

    def test_stale_suppression_reported_as_noqa001(self):
        src = '"""m."""\n_X = 1  # repro: noqa[DET001]\n'
        report = lint_text(src, root=FIXTURES)
        assert [f.rule for f in report.findings] == ["NOQA001"]
        assert "DET001" in report.findings[0].message

    def test_docstring_mention_is_not_a_suppression(self):
        src = '"""Docs may show `# repro: noqa[DET002]` verbatim."""\n'
        assert lint_text(src, root=FIXTURES).findings == []

    def test_subset_run_ignores_foreign_suppressions(self):
        """`--rules DOC001` must not call DET002 annotations stale."""
        src = (
            '"""m."""\nimport time\n'
            "_T = time.time()  # repro: noqa[DET002] -- justified\n"
        )
        report = lint_text(src, root=FIXTURES, rules=["DOC001"])
        assert report.findings == []


class TestBaseline:
    SRC = (
        '"""m."""\nimport time\n'
        "_A = time.time()\n"
        "_B = time.time()\n"
    )

    def _report(self):
        return lint_text(self.SRC, root=FIXTURES)

    def test_baseline_absorbs_known_findings(self):
        report = self._report()
        assert len(report.findings) == 2
        remaining = apply_baseline(report, make_baseline(report))
        assert remaining.findings == []

    def test_new_instance_of_known_violation_still_fails(self):
        """Multiset semantics: N baselined, N+1 present -> 1 fresh."""
        report = self._report()
        one = make_baseline(
            lint_text('"""m."""\nimport time\n_A = time.time()\n',
                      root=FIXTURES)
        )
        remaining = apply_baseline(report, one)
        assert len(remaining.findings) == 1

    def test_baseline_is_line_insensitive(self):
        shifted = lint_text(
            '"""m."""\nimport time\n\n\n_A = time.time()\n'
            "_B = time.time()\n",
            root=FIXTURES,
        )
        remaining = apply_baseline(shifted, make_baseline(self._report()))
        assert remaining.findings == []

    def test_write_load_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        doc = load_baseline(path)
        assert doc["schema_version"] == LINT_SCHEMA_VERSION
        assert apply_baseline(report, doc).findings == []

    def test_load_rejects_non_baseline_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "bench"}))
        with pytest.raises(ParameterError, match="not a lint baseline"):
            load_baseline(path)


class TestRendering:
    def test_text_lines_carry_position_rule_severity(self):
        report = lint_text(
            '"""m."""\nimport time\n_T = time.time()\n',
            rel_path="src/repro/x.py", root=FIXTURES,
        )
        text = render_text(report)
        assert "src/repro/x.py:3:5 DET002 [error]" in text
        assert "1 finding(s)" in text

    def test_clean_text_report_summarises(self):
        report = lint_text('"""m."""\n', root=FIXTURES)
        assert render_text(report).startswith("lint OK")

    def test_json_schema_and_counts(self):
        report = lint_text(
            '"""m."""\nimport time\n_T = time.time()\n', root=FIXTURES
        )
        doc = json.loads(render_json(report))
        assert doc["schema_version"] == LINT_SCHEMA_VERSION
        assert doc["kind"] == "lint"
        assert doc["counts"] == {
            "total": 1, "errors": 1, "by_rule": {"DET002": 1},
        }
        [finding] = doc["findings"]
        assert finding["rule"] == "DET002"
        assert finding["severity"] == "error"


class TestGoldenFixtureRun:
    """The full fixture mini-repo, pinned as machine-readable output."""

    def test_fixture_report_matches_golden(self, golden):
        golden(GOLDEN, render_json(run_lint(root=FIXTURES)))

    def test_fixture_run_is_deterministic(self):
        assert render_json(run_lint(root=FIXTURES)) == render_json(
            run_lint(root=FIXTURES)
        )
