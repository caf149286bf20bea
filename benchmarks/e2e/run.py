"""End-to-end benchmark of ``repro``: serve over TCP, ANALYZE, figure sweeps.

Run every workload at one seed (the untraced run)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0

One workload, as a benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 3 --seconds 15 --trace 0

``--trace 1`` is the traced run: each workload runs once untraced and once
with the layer wrappers of ``layers.py`` installed in the process under
test, and the run prints per-layer self time, the tracing overhead, the
layer-coverage check, and whether both runs gave identical answers.

Compare two sets of runs, metric by metric, against the bounds in
``BENCHMARK.json``::

    python benchmarks/e2e/run.py compare A.json B.json

Every run adds its record to ``--results`` (default
``.bench_out/e2e/results.json``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the metrics.  The
exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import drivers  # noqa: E402
import layers  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_RESULTS = drivers.OUT_DIR / "results.json"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(outcome: drivers.Outcome) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_p50_ms": drivers.percentile(outcome.op_latency_s, 0.5) * 1e3,
        "ops_per_s": len(outcome.op_latency_s) / outcome.elapsed_s,
        "answer_err": statistics.fmean(outcome.answer_err),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome: drivers.Outcome, stats: dict, reference: drivers.Outcome) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Times are per operation of the workload (a request, a build, a figure
    pass); counts come from the wrapped calls and, for the cache, from the
    server's ``status`` counters over the load phase.
    """
    ops = len(outcome.op_latency_s)
    folded = layers.by_layer(stats)
    metrics: dict[str, float] = {}
    for layer, entry in folded.items():
        metrics[f"{layer}.self_ms_per_op"] = entry.self_ns / 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = entry.calls / ops
    for target, _ in layers.LAYERS["core.kernels"]:
        name = layers.span_name("core.kernels", target)
        entry = stats.get(name, layers.NameStats())
        kernel = name.split(":")[1]
        metrics[f"core.kernels.{kernel}.self_ms_per_op"] = entry.self_ns / 1e6 / ops
        metrics[f"core.kernels.{kernel}.calls_per_op"] = entry.calls / ops

    handle = stats.get("serve.server:StatsServer.handle", layers.NameStats())
    metrics["serve.transport.ms_per_req"] = (
        (statistics.fmean(outcome.rtt_s) - handle.total_ns / 1e9 / handle.calls) * 1e3
        if handle.calls and outcome.rtt_s else 0.0
    )
    cache = outcome.server.get("cache", {})
    lookups = sum(cache.get(key, 0) for key in ("hits", "misses", "refreshes"))
    metrics["serve.cache.lookups"] = lookups
    metrics["serve.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["serve.cache.refreshes"] = cache.get("refreshes", 0)
    metrics["serve.cache.evictions"] = cache.get("evictions", 0)
    index = folded["serve.bucket_index"]
    metrics["serve.bucket_index.probes_per_lookup"] = (
        index.counters.get("probes", 0) / index.calls if index.calls else 0.0
    )
    admission = folded["serve.admission"]
    metrics["serve.admission.wait_ms"] = (
        admission.total_ns / 1e6 / admission.calls if admission.calls else 0.0
    )
    metrics["serve.admission.shed"] = admission.counters.get("shed", 0)
    metrics["engine.maintenance.refreshes"] = stats.get(
        "engine.statistics:StatisticsManager.analyze", layers.NameStats()
    ).callers.get("engine.maintenance:AutoStatistics.ensure_fresh", 0)
    metrics["storage.heapfile.pages_per_op"] = folded["storage.heapfile"].counters.get("pages", 0) / ops
    metrics["sampling.block_sampler.pages_per_op"] = folded["sampling.block_sampler"].counters.get("pages", 0) / ops
    cvb = folded["core.adaptive"]
    metrics["core.adaptive.iterations_per_build"] = (
        cvb.counters.get("iterations", 0) / cvb.calls if cvb.calls else 0.0
    )
    metrics["core.adaptive.converged_ratio"] = (
        cvb.counters.get("converged", 0) / cvb.calls if cvb.calls else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        (len(reference.op_latency_s) / reference.elapsed_s)
        / (ops / outcome.elapsed_s)
    )
    return metrics


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_untraced(workload: str, settings: drivers.Settings, spec: dict) -> dict:
    """One untraced run: every end-to-end metric, checked outputs."""
    outcome = drivers.WORKLOADS[workload](settings)
    metrics = end_to_end(outcome)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(outcome.setup_s)} set-ups"
        elif name == "op_p50_ms":
            note = f"n={len(outcome.op_latency_s)}"
        elif name == "answer_err":
            note = f"mean of n={len(outcome.answer_err)}"
        print(f"{workload:<13} {name:<12} {value:>14.6g} {units[name]:<6} {note}")
    for name, value in outcome.detail.items():
        print(f"{workload:<13} {name:<12} {json.dumps(value)}")
    return record(workload, settings, 0, outcome, metrics)


def run_traced(workload: str, settings: drivers.Settings, spec: dict) -> dict:
    """The traced run: untraced reference, then the same seed with spans."""
    reference = drivers.WORKLOADS[workload](
        drivers.Settings(**{**vars(settings), "setups": 1, "spans": None})
    )
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = settings.out_dir / f"spans-{workload}-{settings.seed}.jsonl"
    traced_settings = drivers.Settings(**{**vars(settings), "setups": 1, "spans": str(spans_path)})
    outcome = drivers.WORKLOADS[workload](traced_settings)
    stats = layers.summarize(layers.load_spans(str(spans_path)), outcome.window)
    metrics = per_layer(outcome, stats, reference)

    for message in layers.coverage_errors(workload, stats):
        outcome.fail(f"coverage: {message}")
    if outcome.checksum != reference.checksum:
        outcome.fail(
            f"answers differ between the untraced and traced runs: "
            f"{reference.checksum} != {outcome.checksum}"
        )
    outcome.attempted += reference.attempted
    outcome.failed += reference.failed
    outcome.errors += reference.errors

    ops = len(outcome.op_latency_s)
    op_ms = sum(outcome.op_latency_s) * 1e3 / ops
    print(f"{workload}: {ops} ops traced, {op_ms:.4g} ms per op; "
          f"tracing overhead {metrics['trace.overhead_ratio']:.3f}x")
    print(f"  {'wrapped function':<64} {'calls':>9} {'self ms/op':>11} {'of op':>6}")
    for name, entry in sorted(stats.items(), key=lambda item: -item[1].self_ns):
        share = entry.self_ns / 1e6 / ops / op_ms
        print(f"  {name:<64} {entry.calls:>9} {entry.self_ns / 1e6 / ops:>11.4g} {share:>6.1%}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in units:
        print(f"  {name:<64} {metrics[name]:>14.6g} {units[name]}")
    return record(workload, settings, 1, outcome, metrics, {
        name: vars(entry) for name, entry in sorted(stats.items())
    })


def record(workload, settings, trace, outcome, metrics, layer_stats=None) -> dict:
    """One run's entry in the results file."""
    entry = {
        "workload": workload, "seed": settings.seed, "seconds": settings.seconds,
        "trace": trace, "correct": outcome.failed == 0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "errors": outcome.errors, "metrics": metrics,
        "checksum": outcome.checksum, "detail": outcome.detail,
    }
    if layer_stats is not None:
        entry["layers"] = layer_stats
    for message in outcome.errors:
        print(f"{workload}: CHECK FAILED: {message}")
    return entry


def _run_key(entry: dict) -> tuple:
    return entry["workload"], entry["seed"], entry["seconds"], entry["trace"]


def save(records: list[dict], path: pathlib.Path) -> None:
    """Merge *records* into the results file (same run key: replaced)."""
    key = _run_key
    merged = {}
    if path.exists():
        with open(path) as handle:
            merged = {key(r): r for r in json.load(handle)["runs"]}
    merged.update({key(r): r for r in records})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump({"runs": list(merged.values())}, handle, indent=1)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for seed-keyed runs A and B."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = summary(list(a.values()))
    qb1, mb, qb3 = summary(list(b.values()))
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    worse_by = sign * (mb - ma) / abs(ma)
    if spread > bound:
        if all(sign * x < sign * y for x in b.values() for y in a.values()):
            return "better"
        if all(sign * x > sign * y for x in b.values() for y in a.values()):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = [(a[s], b[s]) for s in a.keys() & b.keys()]
    wins = sum(sign * y < sign * x for x, y in pairs)
    if -worse_by > (qa3 - qa1) / abs(ma) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print per (workload, metric) medians, quartiles and a verdict."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as handle:
            sets.append([r for r in json.load(handle)["runs"] if r["trace"] == 0])
    bad = 0
    print(f"{'workload':<13} {'metric':<12} {'A q1/median/q3':>34} "
          f"{'B q1/median/q3':>34} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (
                {r["seed"]: r["metrics"][name] for r in runs if r["workload"] == workload}
                for runs in sets
            )
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            bad += result in ("worse", "unresolved")
            cells = [
                "/".join(f"{x:.5g}" for x in summary(list(v.values()))) + f" (n={len(v)})"
                for v in (a, b)
            ]
            print(f"{workload:<13} {name:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{metric['bound']:>6.0%}  {result}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="end-to-end benchmark of repro")
    parser.add_argument("--workload", choices=workloads, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed (repeatable; default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, with per-layer metrics")
    parser.add_argument("--results", type=pathlib.Path, default=DEFAULT_RESULTS,
                        help="results file the run's records are merged into")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    runs = []
    for seed in args.seed or [0]:
        for workload in args.workload or workloads:
            settings = drivers.Settings(seed=seed, seconds=args.seconds)
            run = run_traced if args.trace else run_untraced
            runs.append(run(workload, settings, spec))
    save(runs, args.results)
    print(f"results written to {args.results}", file=sys.stderr)

    single = len(runs) == 1
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {
        (name if single else f"{r['workload']}/{r['seed']}/{name}"): {
            "value": r["metrics"][name], "unit": unit,
        }
        for r in runs for name, unit in units.items()
    }
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except drivers.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
