"""docs/OBSERVABILITY.md is documented-by-construction: diff it vs the catalog.

The observability docs promise that every metric and span name in
``repro.obs.catalog`` is catalogued in docs/OBSERVABILITY.md and vice
versa.  These tests enforce the promise literally, so the doc cannot go
stale (or invent names) without CI failing.  Docstring coverage and dead
links are lint rules DOC001/DOC002, gated in tier-1 by
``tests/lint/test_repo_clean.py``.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.obs.catalog import METRICS, SPANS

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "OBSERVABILITY.md"
EXPERIMENTS_DOC = ROOT / "EXPERIMENTS.md"

#: Exposition-format suffixes a histogram metric may legitimately appear
#: with in prose/examples (Prometheus-style derived series).
_EXPOSITION_SUFFIXES = ("_bucket", "_count", "_sum")

_METRIC_NAME = re.compile(r"\brepro_[a-z0-9_]+\b")


def _doc_metric_names() -> set[str]:
    """Metric names mentioned in the doc, normalised to catalog names."""
    raw = set(_METRIC_NAME.findall(DOC.read_text()))
    names = set()
    for name in raw:
        for suffix in _EXPOSITION_SUFFIXES:
            base = name.removesuffix(suffix)
            if base != name and base in METRICS:
                name = base
                break
        names.add(name)
    return names


class TestMetricCatalogSync:
    """The metric tables cover exactly the declared surface."""

    def test_every_declared_metric_is_documented(self):
        """No metric can be added to the catalog without documenting it."""
        missing = set(METRICS) - _doc_metric_names()
        assert not missing, f"undocumented metrics: {sorted(missing)}"

    def test_no_phantom_metrics_in_doc(self):
        """The doc never mentions a metric name the catalog doesn't declare."""
        phantom = _doc_metric_names() - set(METRICS)
        assert not phantom, f"doc mentions undeclared metrics: {sorted(phantom)}"

    def test_documented_labels_match_catalog(self):
        """Each metric's doc table row lists exactly its declared labels."""
        text = DOC.read_text()
        for name, spec in METRICS.items():
            if not spec.labels:
                continue
            # The table row: | `name` | type | `label` = ... | meaning |
            row = re.search(rf"\| `{name}` \|[^|]*\|([^|]*)\|", text)
            assert row is not None, f"no table row for {name}"
            for label in spec.labels:
                assert f"`{label}`" in row.group(1), (
                    f"{name}: label {label!r} missing from its doc row"
                )


class TestSpanTaxonomySync:
    """The span table covers exactly the declared span names."""

    def test_every_declared_span_is_documented(self):
        text = DOC.read_text()
        missing = [name for name in SPANS if f"`{name}`" not in text]
        assert not missing, f"undocumented spans: {missing}"

    def test_span_table_has_no_phantom_rows(self):
        """Every span-shaped name in the taxonomy table is declared."""
        text = DOC.read_text()
        table = text.split("## Span taxonomy", 1)[1].split("##", 1)[0]
        rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", table, re.MULTILINE)
        phantom = [name for name in rows if name not in SPANS]
        assert not phantom, f"doc lists undeclared spans: {phantom}"
        assert set(rows) == set(SPANS)


class TestBenchScenarioSync:
    """Both bench docs catalogue exactly the registered scenarios."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        from repro.obs.bench import SCENARIOS

        return SCENARIOS

    @pytest.mark.parametrize("doc", [DOC, EXPERIMENTS_DOC], ids=lambda p: p.name)
    def test_every_scenario_is_documented(self, doc, scenarios):
        """Adding a scenario without documenting it fails here."""
        text = doc.read_text()
        missing = [name for name in scenarios if f"`{name}`" not in text]
        assert not missing, f"{doc.name} missing scenarios: {missing}"

    def test_no_phantom_scenarios_in_bench_table(self, scenarios):
        """Scenario-shaped rows in the bench table are all registered."""
        text = DOC.read_text()
        table = text.split("## Benchmarking & profiling", 1)[1].split(
            "### Running", 1
        )[0]
        rows = re.findall(r"^\| `([a-z0-9_]+)` \|", table, re.MULTILINE)
        phantom = [name for name in rows if name not in scenarios]
        assert not phantom, f"doc lists unregistered scenarios: {phantom}"
        assert set(rows) == set(scenarios)

    def test_baseline_matches_registered_scenarios(self, scenarios):
        """benchmarks/baseline.json covers the full registry at version 1."""
        import json

        from repro.obs.bench import BENCH_SCHEMA_VERSION

        baseline = json.loads(
            (ROOT / "benchmarks" / "baseline.json").read_text()
        )
        assert baseline["schema_version"] == BENCH_SCHEMA_VERSION
        assert sorted(baseline["scenarios"]) == sorted(scenarios)
