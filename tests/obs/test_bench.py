"""The deterministic benchmark harness: registry, determinism, gate, profiling.

Tier-1 home of the perf-observability guarantees:

- the scenario registry is well-formed and fully described,
- a bench run's **logical section** is byte-identical across runs with the
  same seed and scale,
- the comparator passes a self-compare, fails on an injected logical
  regression, and never compares wall-clock,
- declared wall gates pass exactly at their bound and fail above it,
- ``--profile`` writes ``.pstats`` files that ``pstats`` can load, and
- the full registry at smoke scale still matches the checked-in
  ``benchmarks/baseline.json``, byte for byte — the in-repo logical-cost
  regression gate.
"""

from __future__ import annotations

import copy
import json
import pathlib
import pstats

import pytest

from repro.exceptions import ParameterError
from repro.obs import bench

ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE = ROOT / "benchmarks" / "baseline.json"

#: Cheap subset covering both heapfile-backed and in-memory scenarios.
SUBSET = ["record_sampling", "merge_equi_height", "distinct_gee"]

FAST = dict(scale="smoke", repeats=1, warmup=0)


class TestRegistry:
    def test_names_match_registry_keys(self):
        names = bench.scenario_names()
        assert names == list(bench.SCENARIOS)
        for name in names:
            assert bench.SCENARIOS[name].name == name

    def test_every_scenario_is_described(self):
        for scenario in bench.SCENARIOS.values():
            assert scenario.help, f"{scenario.name} has no help text"
            assert scenario.paper, f"{scenario.name} has no paper hook"

    def test_expected_scenarios_present(self):
        names = set(bench.scenario_names())
        assert {
            "record_sampling", "block_sampling", "cvb_build",
            "merge_equi_height", "distinct_gee", "selectivity_lookup",
            "trialpool_w1", "trialpool_w2", "trialpool_w4",
        } <= names

    def test_scales(self):
        assert {"smoke", "default"} <= set(bench.SCALES)
        smoke = bench.SCALES["smoke"]
        assert smoke.n < bench.SCALES["default"].n

    def test_unknown_scale_rejected(self):
        with pytest.raises(ParameterError, match="unknown bench scale"):
            bench.run_bench(scenarios=SUBSET, scale="galactic")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ParameterError, match="unknown bench scenario"):
            bench.run_bench(scenarios=["nope"], **FAST)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ParameterError, match="repeats"):
            bench.run_bench(scenarios=SUBSET, repeats=0, **{
                k: v for k, v in FAST.items() if k != "repeats"
            })


class TestDeterminism:
    def test_logical_section_is_byte_identical_across_runs(self):
        first = bench.run_bench(scenarios=SUBSET, seed=3, **FAST)
        second = bench.run_bench(scenarios=SUBSET, seed=3, **FAST)
        assert bench.logical_section(first) == bench.logical_section(second)

    def test_logical_section_ignores_repeats_and_warmup(self):
        lean = bench.run_bench(scenarios=["merge_equi_height"], **FAST)
        heavy = bench.run_bench(
            scenarios=["merge_equi_height"], scale="smoke",
            repeats=2, warmup=1,
        )
        assert bench.logical_section(lean) == bench.logical_section(heavy)

    def test_seed_changes_the_logical_section(self):
        a = bench.run_bench(scenarios=["record_sampling"], seed=0, **FAST)
        b = bench.run_bench(scenarios=["record_sampling"], seed=1, **FAST)
        assert bench.logical_section(a) != bench.logical_section(b)

    def test_report_shape(self):
        report = bench.run_bench(scenarios=SUBSET, **FAST)
        assert report["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert report["kind"] == "bench"
        assert sorted(report["scenarios"]) == sorted(SUBSET)
        for entry in report["scenarios"].values():
            assert set(entry["logical"]) == {"result", "io", "counters"}
            assert entry["wall"]["repeats"] == 1
            assert "gate" not in entry["wall"]  # no SUBSET scenario is gated
        assert bench.gate_failures(report) == []
        assert set(report["meta"]) == {"generated_at", "git_sha", "python"}

    def test_timing_metrics_never_enter_logical_counters(self):
        report = bench.run_bench(scenarios=["trialpool_w2"], **FAST)
        counters = report["scenarios"]["trialpool_w2"]["logical"]["counters"]
        for name in bench._TIMING_METRICS:
            assert not any(key.startswith(name) for key in counters)


class TestComparator:
    @pytest.fixture(scope="class")
    def report(self):
        return bench.run_bench(scenarios=SUBSET, **FAST)

    def test_self_compare_passes(self, report):
        failures, _notes = bench.compare_reports(report, report)
        assert failures == []

    def test_injected_logical_regression_fails(self, report):
        doctored = copy.deepcopy(report)
        logical = doctored["scenarios"]["record_sampling"]["logical"]
        logical["io"]["page_reads"] = logical["io"].get("page_reads", 0) + 7
        failures, _notes = bench.compare_reports(report, doctored)
        assert any(
            "record_sampling" in f and "page_reads" in f for f in failures
        )

    def test_missing_scenario_fails_new_scenario_notes(self, report):
        shrunk = copy.deepcopy(report)
        del shrunk["scenarios"]["distinct_gee"]
        failures, _ = bench.compare_reports(shrunk, report)
        assert any("distinct_gee" in f and "missing" in f for f in failures)
        _, notes = bench.compare_reports(report, shrunk)
        assert any("distinct_gee" in n and "new scenario" in n for n in notes)

    def test_wall_clock_is_never_compared(self, report):
        slow = copy.deepcopy(report)
        for entry in slow["scenarios"].values():
            entry["wall"]["median_s"] *= 100
        assert bench.compare_reports(slow, report) == ([], [])
        assert bench.compare_reports(report, slow) == ([], [])

    def test_baseline_holds_only_what_compare_reads(self, report):
        baseline = bench.baseline_of(report)
        assert set(baseline) == {"schema_version", "scale", "seed", "scenarios"}
        for name, entry in baseline["scenarios"].items():
            assert entry == {"logical": report["scenarios"][name]["logical"]}
        assert bench.compare_reports(report, baseline) == ([], [])

    def test_schema_or_scale_mismatch_fails_fast(self, report):
        other = copy.deepcopy(report)
        other["schema_version"] = 99
        failures, _ = bench.compare_reports(report, other)
        assert any("schema_version mismatch" in f for f in failures)
        other = copy.deepcopy(report)
        other["scale"] = "default"
        failures, _ = bench.compare_reports(report, other)
        assert any("scale mismatch" in f for f in failures)


class TestWallGates:
    """Declared wall gates: verdicts in the wall section, exact bound."""

    GATED = ["serve_cache", "telemetry_overhead"]

    @pytest.fixture(scope="class")
    def report(self):
        return bench.run_bench(scenarios=self.GATED, **FAST)

    def test_gated_scenarios_declare_their_gates(self):
        assert bench.SCENARIOS["serve_cache"].gate == bench.WallGate(
            reading="hit_request_s", reference="cold_analyze_s", factor=0.1
        )
        assert bench.SCENARIOS["telemetry_overhead"].gate == bench.WallGate(
            reading="telemetry_p99_s",
            reference="baseline_p99_s",
            factor=5.0,
            floor_s=1e-3,
        )

    @pytest.mark.parametrize("name", GATED)
    def test_bound_passes_doctored_reading_fails(self, report, name):
        gate = bench.SCENARIOS[name].gate
        wall = copy.deepcopy(report["scenarios"][name]["wall"])
        assert wall["gate"]["reading_s"] == wall[gate.reading]
        bound = gate.factor * wall[gate.reference] + gate.floor_s
        wall[gate.reading] = bound
        assert gate.verdict(wall)["passed"]

        wall[gate.reading] = 2 * bound
        verdict = gate.verdict(wall)
        assert not verdict["passed"]
        doctored = copy.deepcopy(report)
        doctored["scenarios"][name]["wall"]["gate"] = verdict
        failures = bench.gate_failures(doctored)
        assert any(f.startswith(f"{name}: {gate.reading} <=") for f in failures)


class TestProfiling:
    def test_profile_writes_loadable_pstats(self, tmp_path):
        bench.run_bench(
            scenarios=["merge_equi_height"], profile_dir=tmp_path, **FAST
        )
        stats_path = tmp_path / "merge_equi_height.pstats"
        assert stats_path.exists()
        stats = pstats.Stats(str(stats_path))
        assert stats.total_calls > 0
        top = (tmp_path / "merge_equi_height_top.txt").read_text()
        assert "cumulative" in top


class TestBaselineGate:
    """The checked-in baseline is the repo's logical-cost regression gate."""

    REGENERATE = (
        "if intentional, regenerate with `python -m repro bench --scale "
        "smoke --repeats 1 --warmup 0 --update-baseline`"
    )

    def test_full_smoke_run_matches_checked_in_baseline(self, tmp_path):
        baseline = json.loads(BASELINE.read_text())
        report = bench.run_bench(**FAST)
        failures, _notes = bench.compare_reports(report, baseline)
        assert failures == [], (
            "bench logical costs drifted from benchmarks/baseline.json; "
            f"{self.REGENERATE}:\n" + "\n".join(failures)
        )
        # What --update-baseline would write is the checked-in file itself,
        # so regenerating it on an unchanged commit is a no-op.
        fresh = bench.write_report(
            bench.baseline_of(report), tmp_path / "baseline.json"
        )
        assert fresh.read_bytes() == BASELINE.read_bytes(), (
            "benchmarks/baseline.json is not what --update-baseline "
            f"writes; {self.REGENERATE}"
        )
