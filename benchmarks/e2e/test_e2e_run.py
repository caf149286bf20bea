"""Metric names against ``BENCHMARK.json``, and the ``compare`` verdicts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import drivers  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()


def outcome(**changes):
    base = dict(
        setup_s=[1.0, 2.0, 3.0], op_latency_s=[0.001] * 20, elapsed_s=2.0,
        peak_rss_mb=100.0, window=(0, 10), answer_err=[0.01] * 10,
        rtt_s=[0.001] * 20, server={"cache": {
            "hits": 8, "misses": 1, "refreshes": 1, "evictions": 0,
        }},
    )
    base.update(changes)
    return drivers.Outcome(**base)


def test_end_to_end_names_match_the_spec():
    metrics = run.end_to_end(outcome())
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert metrics["setup_s"] == 2.0
    assert metrics["ops_per_s"] == 10.0
    assert all(value > 0 for value in metrics.values())


def test_per_layer_names_match_the_spec():
    stats = {
        "serve.server:StatsServer.handle": layers.NameStats(calls=20, total_ns=10_000_000, self_ns=5_000_000),
        "serve.bucket_index:BucketIndex.estimate_range": layers.NameStats(
            calls=10, total_ns=100, self_ns=100, counters={"probes": 120}),
    }
    metrics = run.per_layer(outcome(), stats, outcome(elapsed_s=1.0))
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["serve.server.self_ms_per_op"] == 0.25
    assert metrics["serve.bucket_index.probes_per_lookup"] == 12
    assert metrics["serve.cache.hit_ratio"] == 0.8
    assert metrics["trace.overhead_ratio"] == 2.0
    assert abs(metrics["serve.transport.ms_per_req"] - 0.5) < 1e-9


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(drivers.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


class TestVerdict:
    def test_same_values_are_unchanged(self):
        a = {s: 10.0 + 0.01 * s for s in range(10)}
        assert run.verdict(a, dict(a), "lower", 0.1) == "unchanged"

    def test_beyond_the_bound_is_worse(self):
        a = {s: 10.0 + 0.01 * s for s in range(10)}
        assert run.verdict(a, {s: v * 1.2 for s, v in a.items()}, "lower", 0.1) == "worse"
        assert run.verdict(a, {s: v * 0.8 for s, v in a.items()}, "higher", 0.1) == "worse"

    def test_clear_gain_is_better(self):
        a = {s: 10.0 + 0.01 * s for s in range(10)}
        assert run.verdict(a, {s: v * 0.95 for s, v in a.items()}, "lower", 0.1) == "better"

    def test_wide_spread_is_unresolved(self):
        a = {s: 10.0 + 3.0 * (s % 3) for s in range(10)}
        b = {s: 11.0 + 3.0 * (s % 3) for s in range(10)}
        assert run.verdict(a, b, "lower", 0.1) == "unresolved"


def test_compare_reads_result_files(tmp_path, capsys):
    def write(path, scale):
        runs = [
            {"workload": "serve_hot", "seed": s, "seconds": 10, "trace": 0,
             "metrics": {m["name"]: scale * (1.0 + 0.001 * s) for m in SPEC["end_to_end"]}}
            for s in range(10)
        ]
        path.write_text(json.dumps({"runs": runs}))

    write(tmp_path / "a.json", 1.0)
    write(tmp_path / "b.json", 1.0)
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"), SPEC) == 0
    assert capsys.readouterr().out.count("unchanged") == len(SPEC["end_to_end"])
    write(tmp_path / "b.json", 1.5)
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"), SPEC) == 1
