"""Golden-file tests for the metric exporters and the trace log.

One fixed, fully seeded scenario — a resilient CVB build over a faulty
heap file — is rendered through every exporter and compared byte-for-byte
against checked-in golden files.  Everything compared is deterministic:
exports carry no timestamps, trace comparison uses the timing-redacted
view, and even the I/O deltas are stable because read latency is simulated.

Regenerate after an intentional format change with
``REPRO_REGEN_GOLDEN=1`` (see the ``golden`` fixture in the root conftest).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.adaptive import cvb_build
from repro.obs import metrics, trace
from repro.obs.metrics import render_json, render_prom, render_text
from repro.storage.faults import (
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
)
from repro.storage.heapfile import HeapFile
from repro.workloads.datasets import make_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run_scenario():
    """The pinned build every golden file is derived from."""
    values = make_dataset("zipf2", 5_000, rng=7).values
    base = HeapFile.from_values(
        values, layout="random", rng=1, blocking_factor=25
    )
    faulty = FaultyHeapFile(
        base,
        FaultPolicy(transient_rate=0.1, corrupt_fraction=0.02, seed=2),
    )
    with metrics.collecting() as registry, trace.tracing() as recorder:
        cvb_build(
            faulty,
            k=10,
            f=0.25,
            rng=3,
            retry=RetryPolicy(max_attempts=5, seed=4),
            budget=ReadBudget(max_skipped_fraction=0.5),
        )
    return registry, recorder


class TestGoldenExports:
    def setup_method(self):
        self.registry, self.recorder = _run_scenario()

    def test_text_export_matches_golden(self, golden):
        golden(GOLDEN_DIR / "metrics.txt", render_text(self.registry))

    def test_json_export_matches_golden(self, golden):
        golden(GOLDEN_DIR / "metrics.json", render_json(self.registry))

    def test_prom_export_matches_golden(self, golden):
        golden(GOLDEN_DIR / "metrics.prom", render_prom(self.registry))

    def test_prom_histograms_are_cumulative_and_closed(self):
        """Every histogram's +Inf bucket equals its _count sample."""
        lines = render_prom(self.registry).splitlines()
        inf = {
            line.split("{", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in lines
            if 'le="+Inf"' in line
        }
        counts = {
            line.split(" ", 1)[0].removesuffix("_count") + "_bucket":
                float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.split(" ", 1)[0].endswith("_count")
        }
        assert inf, "no histogram buckets rendered"
        for name, value in inf.items():
            assert counts[name] == value

    def test_trace_matches_golden(self, golden):
        golden(
            GOLDEN_DIR / "trace.jsonl",
            self.recorder.to_jsonl(redact_timing=True),
        )

    def test_json_export_carries_schema_version(self):
        document = json.loads(render_json(self.registry))
        assert document["schema_version"] == metrics.SCHEMA_VERSION

    def test_trace_records_carry_schema_version(self):
        lines = self.recorder.to_jsonl(redact_timing=True).splitlines()
        assert lines, "scenario produced no spans"
        for line in lines:
            record = json.loads(line)
            assert record["schema_version"] == trace.SCHEMA_VERSION

    def test_scenario_is_reproducible_in_process(self):
        registry, recorder = _run_scenario()
        assert render_text(registry) == render_text(self.registry)
        assert recorder.to_jsonl(redact_timing=True) == self.recorder.to_jsonl(
            redact_timing=True
        )
