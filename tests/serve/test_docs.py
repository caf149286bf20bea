"""docs/SERVING.md and docs/INDEX.md are documented-by-construction.

SERVING.md promises its endpoint table mirrors
``repro.serve.protocol.ENDPOINTS`` and that the serving metric/span/
scenario names it cites are declared in ``repro.obs.catalog`` and
``benchmarks/baseline.json``.  INDEX.md promises to list every
documentation file.  These tests enforce both promises literally, mirroring
``tests/obs/test_docs.py``: the served surface cannot change without the
docs moving in lockstep.
"""

from __future__ import annotations

import json
import pathlib
import re

from repro.obs.catalog import METRICS, SPANS
from repro.serve.protocol import ENDPOINTS, OPTIONAL_FIELDS, SHUTDOWN_OP

ROOT = pathlib.Path(__file__).resolve().parents[2]
SERVING_DOC = ROOT / "docs" / "SERVING.md"
INDEX_DOC = ROOT / "docs" / "INDEX.md"
README = ROOT / "README.md"

#: Exposition-format suffixes a histogram metric may legitimately appear
#: with in prose/examples (Prometheus-style derived series).
_EXPOSITION_SUFFIXES = ("_bucket", "_count", "_sum")

_SERVE_METRIC_NAME = re.compile(r"\brepro_serve_[a-z0-9_]+\b")
#: Span-shaped names; the lookbehind skips dotted module paths such as
#: ``repro.serve.protocol``.
_SERVE_SPAN_NAME = re.compile(r"(?<![.\w])serve\.[a-z_]+\b")


def _endpoint_table() -> list[tuple[str, str]]:
    """(op, required-fields cell) per row of the SERVING.md endpoint table."""
    section = SERVING_DOC.read_text().split("## Endpoints", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z_]+)` \|([^|]*)\|", section, re.MULTILINE)


class TestEndpointTableSync:
    """The endpoint table covers exactly the declared protocol."""

    def test_every_endpoint_is_documented(self):
        """No op can be added to ENDPOINTS without a doc table row."""
        documented = {op for op, _ in _endpoint_table()}
        missing = set(ENDPOINTS) - documented
        assert not missing, f"undocumented endpoints: {sorted(missing)}"

    def test_no_phantom_endpoints_in_table(self):
        """The table never lists an op the protocol doesn't declare."""
        documented = {op for op, _ in _endpoint_table()}
        phantom = documented - set(ENDPOINTS)
        assert not phantom, f"doc lists undeclared endpoints: {sorted(phantom)}"
        assert documented == set(ENDPOINTS)

    def test_required_fields_listed_per_row(self):
        """Each row's fields cell names every required field in backticks."""
        rows = dict(_endpoint_table())
        for op, spec in ENDPOINTS.items():
            cell = rows[op]
            for field in spec.fields:
                assert f"`{field}`" in cell, (
                    f"{op}: required field {field!r} missing from its doc row"
                )
            for field in OPTIONAL_FIELDS.get(op, {}):
                assert f"`{field}`" in cell, (
                    f"{op}: optional field {field!r} missing from its doc row"
                )

    def test_shutdown_op_documented_outside_table(self):
        """The transport-level shutdown op is documented, but not as a row."""
        assert f"`{SHUTDOWN_OP}`" in SERVING_DOC.read_text()
        assert SHUTDOWN_OP not in {op for op, _ in _endpoint_table()}


class TestObservabilitySync:
    """Serving metric/span names cited in SERVING.md match the catalog."""

    def _doc_metric_names(self) -> set[str]:
        raw = set(_SERVE_METRIC_NAME.findall(SERVING_DOC.read_text()))
        names = set()
        for name in raw:
            for suffix in _EXPOSITION_SUFFIXES:
                base = name.removesuffix(suffix)
                if base != name and base in METRICS:
                    name = base
                    break
            names.add(name)
        return names

    def test_every_serve_metric_is_documented(self):
        declared = {n for n in METRICS if n.startswith("repro_serve_")}
        missing = declared - self._doc_metric_names()
        assert not missing, f"undocumented serve metrics: {sorted(missing)}"

    def test_no_phantom_serve_metrics(self):
        phantom = self._doc_metric_names() - set(METRICS)
        assert not phantom, f"doc cites undeclared metrics: {sorted(phantom)}"

    def test_serve_spans_documented_and_declared(self):
        text = SERVING_DOC.read_text()
        declared = {n for n in SPANS if n.startswith("serve.")}
        missing = [n for n in declared if f"`{n}`" not in text]
        assert not missing, f"undocumented serve spans: {missing}"
        phantom = set(_SERVE_SPAN_NAME.findall(text)) - set(SPANS)
        assert not phantom, f"doc cites undeclared spans: {sorted(phantom)}"

    def test_serve_scenarios_documented(self):
        baseline = json.loads(
            (ROOT / "benchmarks" / "baseline.json").read_text()
        )
        text = SERVING_DOC.read_text()
        serve = [n for n in baseline["scenarios"] if n.startswith("serve_")]
        assert serve, "no serve_* scenarios in the baseline"
        missing = [n for n in serve if f"`{n}`" not in text]
        assert not missing, f"undocumented serve scenarios: {missing}"


class TestDocsIndex:
    """docs/INDEX.md is the complete navigation page README points at."""

    def test_every_docs_file_is_indexed(self):
        """Each docs/*.md (except the index itself) is linked from INDEX.md."""
        text = INDEX_DOC.read_text()
        missing = [
            path.name
            for path in sorted(ROOT.glob("docs/*.md"))
            if path != INDEX_DOC and f"]({path.name})" not in text
        ]
        assert not missing, f"docs files missing from INDEX.md: {missing}"

    def test_no_phantom_docs_links(self):
        """Every docs-relative link in INDEX.md resolves to a real file."""
        text = INDEX_DOC.read_text()
        for target in re.findall(r"\]\(([A-Za-z0-9_./-]+\.md)\)", text):
            assert (INDEX_DOC.parent / target).resolve().is_file(), (
                f"INDEX.md links missing file: {target}"
            )

    def test_top_level_docs_are_indexed(self):
        text = INDEX_DOC.read_text()
        for name in ("README", "DESIGN", "EXPERIMENTS", "ROADMAP"):
            assert f"](../{name}.md)" in text, f"{name}.md missing from index"

    def test_readme_links_the_index(self):
        assert "docs/INDEX.md" in README.read_text()
