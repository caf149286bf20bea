#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every public module of :mod:`repro` grouped by subpackage, collects
the signatures and first docstring paragraphs of everything in ``__all__``,
and renders one Markdown reference with a table of contents.  The output
is the same on every run (object addresses are dropped from reprs), and
``tests/test_api.py`` fails when the committed file differs from it or
when a public module is missing from :data:`SECTIONS`.  Regenerate after
API changes:

    python tools/gen_api_reference.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: (section title, blurb, modules) — one section per subpackage, in
#: dependency order (storage at the bottom of the stack, CLI at the top).
SECTIONS = [
    (
        "Package root",
        "Top-level re-exports and shared infrastructure.",
        ["repro", "repro.exceptions"],
    ),
    (
        "repro.storage — simulated disk",
        "Heap files, pages, layouts, I/O accounting and fault injection.",
        [
            "repro.storage.heapfile",
            "repro.storage.layout",
            "repro.storage.page",
            "repro.storage.record",
            "repro.storage.iostats",
            "repro.storage.faults",
        ],
    ),
    (
        "repro.sampling — record- and block-level samplers",
        "The two sampling regimes of Sections 3-4, plus step schedules.",
        [
            "repro.sampling.record_sampler",
            "repro.sampling.block_sampler",
            "repro.sampling.page_samplers",
            "repro.sampling.schedule",
            "repro.sampling.design_effect",
        ],
    ),
    (
        "repro.core — histograms, bounds, the adaptive algorithm",
        "Equi-height histograms, error metrics, Corollary 1 bounds and the "
        "cross-validation-based (CVB) adaptive build.",
        [
            "repro.core.kernels",
            "repro.core.histogram",
            "repro.core.error_metrics",
            "repro.core.bounds",
            "repro.core.adaptive",
            "repro.core.compressed",
            "repro.core.equiwidth",
            "repro.core.maxdiff",
            "repro.core.merge",
            "repro.core.serialization",
        ],
    ),
    (
        "repro.workloads — synthetic data and queries",
        "The paper's Zipfian datasets and range-query workloads.",
        [
            "repro.workloads.zipf",
            "repro.workloads.distributions",
            "repro.workloads.datasets",
            "repro.workloads.queries",
        ],
    ),
    (
        "repro.distinct — distinct-value estimation",
        "Section 6: frequency profiles and the GEE family of estimators.",
        [
            "repro.distinct.frequency",
            "repro.distinct.estimators",
            "repro.distinct.bounds",
            "repro.distinct.metrics",
        ],
    ),
    (
        "repro.engine — the SQL Server-shaped surface",
        "Tables, ANALYZE, selectivity estimation, staleness policy and "
        "degraded-mode resilience.",
        [
            "repro.engine.table",
            "repro.engine.statistics",
            "repro.engine.catalog",
            "repro.engine.density",
            "repro.engine.selectivity",
            "repro.engine.joins",
            "repro.engine.maintenance",
            "repro.engine.resilience",
            "repro.engine.serialization",
        ],
    ),
    (
        "repro.baselines — prior-work comparators",
        "GMP incremental maintenance and the PSC sampling baseline.",
        ["repro.baselines.gmp", "repro.baselines.psc"],
    ),
    (
        "repro.experiments — figures, sweeps, the trial engine",
        "Deterministic Monte-Carlo infrastructure and the paper's figures.",
        [
            "repro.experiments.config",
            "repro.experiments.parallel",
            "repro.experiments.runner",
            "repro.experiments.figures",
            "repro.experiments.reporting",
            "repro.experiments.chaos",
        ],
    ),
    (
        "repro.durability — crash-safe persistence",
        "Atomic writes, CRC-framed journals, the durable statistics "
        "catalog, resumable run checkpoints and the process-kill chaos "
        "harness; see docs/DURABILITY.md for formats and guarantees.",
        [
            "repro.durability.atomic",
            "repro.durability.journal",
            "repro.durability.catalog_store",
            "repro.durability.runjournal",
            "repro.durability.chaos",
        ],
    ),
    (
        "repro.serve — the statistics server",
        "Multi-tenant ANALYZE/estimate serving: request protocol, LRU "
        "serving cache, admission control, the O(log k) bucket index and "
        "the deterministic load generator; see docs/SERVING.md.",
        [
            "repro.serve.protocol",
            "repro.serve.bucket_index",
            "repro.serve.cache",
            "repro.serve.admission",
            "repro.serve.server",
            "repro.serve.telemetry",
            "repro.serve.monitor",
            "repro.serve.loadgen",
        ],
    ),
    (
        "repro.obs — observability",
        "Metrics registry, trace spans, exporters, the deterministic "
        "benchmark harness and the live-telemetry primitives; see "
        "docs/OBSERVABILITY.md for the full catalog and docs/TELEMETRY.md "
        "for the streaming sketch semantics.",
        [
            "repro.obs.catalog",
            "repro.obs.metrics",
            "repro.obs.trace",
            "repro.obs.bench",
            "repro.obs.live.sketch",
            "repro.obs.live.window",
            "repro.obs.live.slo",
        ],
    ),
    (
        "repro.lint — static analysis",
        "The determinism/invariant lint engine, its code and doc rule "
        "sets, and report/baseline handling; see docs/LINTING.md for the "
        "rule catalog.",
        [
            "repro.lint.engine",
            "repro.lint.rules",
            "repro.lint.docrules",
            "repro.lint.report",
        ],
    ),
    (
        "Command line",
        "`python -m repro` subcommands.",
        ["repro.cli"],
    ),
]

MODULES = [module for _, _, modules in SECTIONS for module in modules]

#: The ``at 0x...`` part of a default repr, which changes on every run.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return ""


def github_anchor(heading: str) -> str:
    """The anchor GitHub generates for a Markdown heading."""
    text = heading.lower().replace(" ", "-")
    return re.sub(r"[^a-z0-9_\-]", "", text)


def render_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"### `{module_name}`", ""]
    lines.append(first_paragraph(module.__doc__))
    lines.append("")
    names = [n for n in getattr(module, "__all__", []) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"#### class `{name}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            methods = [
                (m_name, m)
                for m_name, m in inspect.getmembers(obj)
                if not m_name.startswith("_")
                and (inspect.isfunction(m) or inspect.ismethod(m))
                and m.__qualname__.startswith(obj.__name__ + ".")
            ]
            for m_name, m in methods:
                lines.append(f"- `{m_name}{signature_of(m)}` — "
                             f"{first_paragraph(m.__doc__)}")
            if methods:
                lines.append("")
        elif callable(obj):
            lines.append(f"#### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
        else:
            lines.append(f"#### data `{name}`")
            lines.append("")
            lines.append(f"`{_ADDRESS.sub('', repr(obj))[:298]}`")
            lines.append("")
    return lines


def render() -> str:
    """The full text of docs/API.md."""
    out = [
        "# API reference",
        "",
        "Auto-generated from docstrings by `tools/gen_api_reference.py`; "
        "do not edit by hand.",
        "",
        "## Contents",
        "",
    ]
    for title, _, modules in SECTIONS:
        out.append(f"- [{title}](#{github_anchor(title)})")
        for module in modules:
            out.append(f"  - [`{module}`](#{github_anchor(f'`{module}`')})")
    out.append("")
    for title, blurb, modules in SECTIONS:
        out.append(f"## {title}")
        out.append("")
        out.append(blurb)
        out.append("")
        for module in modules:
            out.extend(render_module(module))
    return "\n".join(out) + "\n"


def main() -> None:
    text = render()
    target = ROOT / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
