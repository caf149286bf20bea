"""The library's logical costs, checked byte for byte against a golden file.

The paper's claim is a cost claim: Theorem 4's sample size and CVB's
f·s/k stopping rule (Theorem 7) buy bounded histogram error for a small,
predictable number of page reads.  Each scenario below drives one hot path
of that cost story from above — record and block sampling, the CVB build,
GEE, selectivity lookup, the trial pool at 1/2/4 workers, the kernels, the
durable catalog, serving and live telemetry.

A scenario builds its inputs, then runs its kernel exactly once under a
fresh metrics registry, with the heap file's ``IOStats`` delta captured
where it has a heap file.  Its logical section is that run's counters,
I/O delta and deterministic outputs.  All of it is a function of the seed,
so an extra page read per build, a changed CVB round count or a lost
cache hit shows as a one-line diff against ``benchmarks/baseline.json``,
and a second run of each scenario, after all of them, must read the same
section.
Regenerate the file after an intended cost change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest benchmarks/test_logical_costs.py

Wall-clock readings are never part of this file: the two within-run wall
gates live in ``benchmarks/wall_gates.py``, and timing claims across
commits go through the end-to-end benchmark in ``benchmarks/e2e``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from repro._rng import spawn_seeds
from repro.core import adaptive, kernels
from repro.core.histogram import EquiHeightHistogram
from repro.distinct.estimators import GEEEstimator
from repro.distinct.frequency import FrequencyProfile
from repro.durability import CatalogStore, RunCheckpoint
from repro.engine import StatisticsManager, Table
from repro.engine.selectivity import RangeSelectivityEstimator
from repro.experiments.parallel import TrialPool
from repro.experiments.runner import mean_error_at_rate
from repro.obs import metrics
from repro.obs.catalog import METRICS
from repro.obs.live import StreamingQuantileSketch
from repro.sampling.block_sampler import sample_blocks
from repro.sampling.record_sampler import (
    sample_records_from_file,
    sample_with_replacement,
)
from repro.serve import (
    AdmissionController,
    LoadGenerator,
    LoadProfile,
    StatsServer,
)
from repro.storage import FaultPolicy, ReadBudget, RetryPolicy
from repro.storage.heapfile import HeapFile
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import random_range_queries

BASELINE = "benchmarks/baseline.json"
#: Layout version of the baseline document.
SCHEMA_VERSION = 1
SEED = 0

# Sizes that keep every scenario well under a second.
#: Table rows of the shared zipf2 column.
N = 20_000
BLOCKING_FACTOR = 50
K = 20
#: Tuples drawn by the record-sampling scenarios.
RECORD_SAMPLE = 500
#: Pages drawn by the block-sampling scenario.
BLOCK_SAMPLE = 80
#: Range queries answered by the selectivity and serve scenarios.
QUERIES = 200
#: Monte-Carlo trials per trial-pool scenario, and maps in the resume one.
POOL_TRIALS = 6
POOL_RATE = 0.1
#: Past the RefreshPolicy threshold max(500, 0.2 n), so a churn triggers
#: exactly one auto-refresh of the column.
CHURN_ROWS = N // 4 + 500

#: Histogram metrics whose observations are wall-clock measurements.
_TIMING_METRICS = frozenset(
    {"repro_pool_trial_seconds", "repro_serve_request_seconds"}
)
#: Counters of serialized byte sizes, which vary with the pickle protocol
#: and path lengths, so across Python versions and platforms.
_NONPORTABLE_METRICS = frozenset({"repro_checkpoint_bytes_total"})


# ----------------------------------------------------------------------
# Shared inputs and fingerprints
# ----------------------------------------------------------------------


def table() -> tuple[np.ndarray, np.ndarray]:
    """The shared synthetic column: zipf2 values plus their sorted copy."""
    values = make_dataset("zipf2", N, rng=SEED).values
    return values, np.sort(values)


def _heapfile() -> HeapFile:
    """The shared column as a randomly laid-out heap file."""
    values, _ = table()
    return HeapFile.from_values(
        values, layout="random", rng=SEED + 1, blocking_factor=BLOCKING_FACTOR
    )


def _sample_result(sample: np.ndarray) -> dict:
    """Logical fingerprint of a tuple sample: its size and exact sum."""
    return {
        "tuples": int(sample.size),
        "sample_sum": float(math.fsum(sample.tolist())),
    }


def _histogram_result(histogram) -> dict:
    """Logical fingerprint of a histogram: k, total, exact separator sum."""
    return {
        "k": int(histogram.k),
        "total": int(histogram.total),
        "separator_sum": float(math.fsum(histogram.separators.tolist())),
    }


def _counters(registry: metrics.MetricsRegistry) -> dict:
    """Flatten a registry snapshot into a deterministic {series: value} map.

    Counter and gauge series map to their values; histogram series map to
    ``_count`` / ``_sum`` pairs (the exactly-rounded ``fsum``), except the
    wall-clock series in :data:`_TIMING_METRICS`.
    """
    snap = registry.snapshot()
    out: dict[str, float] = {}

    def _series(name: str, labels: dict) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{name}{{{inner}}}"

    for name, labels, value in snap["counters"]:
        if name not in _NONPORTABLE_METRICS:
            out[_series(name, labels)] = value
    for name, labels, value in snap["gauges"]:
        out[_series(name, labels)] = value
    for name, labels, values in snap["histograms"]:
        if name in _TIMING_METRICS:
            continue
        key = _series(name, labels)
        out[key + "_count"] = len(values)
        out[key + "_sum"] = math.fsum(values)
    return out


def _logical(run, heapfile: HeapFile | None = None) -> dict:
    """Run *run* once under a fresh registry; its logical section."""
    with metrics.collecting() as registry:
        if heapfile is None:
            io, result = {}, run()
        else:
            with heapfile.iostats.delta() as io:
                result = run()
    return {"counters": _counters(registry), "io": io, "result": result}


# ----------------------------------------------------------------------
# Serving helpers (shared with benchmarks/wall_gates.py)
# ----------------------------------------------------------------------


def serve_queries(values: np.ndarray, count: int, seed: int) -> list:
    """Deterministic range-query schedule over the column's domain."""
    rng = np.random.default_rng(seed)
    lo_d, hi_d = float(values.min()), float(values.max())
    width = hi_d - lo_d
    queries = []
    for _ in range(count):
        a, b = sorted((float(rng.random()), float(rng.random())))
        queries.append((lo_d + a * width, lo_d + b * width))
    return queries


def server(values: np.ndarray, seed: int, **kwargs) -> StatsServer:
    """A fresh statistics server over the shared column, nothing built."""
    return StatsServer(
        {"bench": Table("bench", {"value": values})},
        seed=seed,
        build_params={"k": K},
        **kwargs,
    )


def analyze(stats_server: StatsServer) -> None:
    """Warm *stats_server* up with one ANALYZE of the column."""
    response = stats_server.handle(
        {"op": "analyze", "table": "bench", "column": "value"}
    )
    assert response["ok"], response


def estimate_range(stats_server: StatsServer, lo: float, hi: float) -> dict:
    """One ``estimate_range`` request against the column."""
    return stats_server.handle(
        {
            "op": "estimate_range", "table": "bench",
            "column": "value", "lo": lo, "hi": hi,
        }
    )


def loadgen(values: np.ndarray, telemetry: bool = False):
    """One deterministic loadgen run (warmup build, churn refresh, queries)
    against a fresh server; returns ``(summary, server)``."""
    stats_server = server(values, SEED + 31, telemetry=telemetry)
    profile = LoadProfile(
        requests=QUERIES,
        clients=2,
        seed=SEED + 32,
        churn_rows=CHURN_ROWS,
        analyze_params=(("k", K),),
    )
    summary = LoadGenerator(server=stats_server, profile=profile).run()
    return summary, stats_server


# ----------------------------------------------------------------------
# Scenarios: each returns its logical section
# ----------------------------------------------------------------------


def record_sampling(tmp_path) -> dict:
    """Section 3 / Theorem 4: r tuples cost r page reads
    (``sample_records_from_file``)."""
    heapfile = _heapfile()

    def run():
        return _sample_result(
            sample_records_from_file(heapfile, RECORD_SAMPLE, rng=SEED + 2)
        )

    return _logical(run, heapfile)


def block_sampling(tmp_path) -> dict:
    """Section 4 / Figure 4: blocks sampled are the I/O unit
    (``sample_blocks`` page-level draws)."""
    heapfile = _heapfile()

    def run():
        return _sample_result(
            sample_blocks(heapfile, BLOCK_SAMPLE, rng=SEED + 3)
        )

    return _logical(run, heapfile)


def cvb_build(tmp_path) -> dict:
    """Section 6 / Theorem 7 and Figure 6: adaptive stopping cost of one
    full ``cvb_build`` to a target error."""
    heapfile = _heapfile()

    def run():
        result = adaptive.cvb_build(heapfile, k=K, f=0.25, rng=SEED + 4)
        return {
            "pages_sampled": int(result.pages_sampled),
            "tuples_sampled": int(result.tuples_sampled),
            "iterations": len(result.iterations),
            "converged": bool(result.converged),
        }

    return _logical(run, heapfile)


def distinct_gee(tmp_path) -> dict:
    """Section 6.3 / Theorem 8 and Figures 9-10: ``FrequencyProfile`` plus
    the GEE estimator on a with-replacement tuple sample."""
    values, _ = table()
    sample = sample_with_replacement(values, RECORD_SAMPLE, rng=SEED + 5)

    def run():
        profile = FrequencyProfile.from_sample(sample)
        estimate = GEEEstimator().estimate(profile, N)
        return {
            "estimate": float(estimate),
            "distinct_in_sample": int(profile.distinct_in_sample),
        }

    return _logical(run)


def selectivity_lookup(tmp_path) -> dict:
    """Section 2 / Theorem 3: range estimates from the histogram — a
    ``RangeSelectivityEstimator`` over a random range workload."""
    values, sorted_values = table()
    estimator = RangeSelectivityEstimator(
        EquiHeightHistogram.from_values(values, K), N
    )
    queries = random_range_queries(sorted_values, QUERIES, rng=SEED + 6)

    def run():
        estimates = [estimator.estimate(query) for query in queries]
        return {
            "queries": len(estimates),
            "estimate_sum": float(math.fsum(estimates)),
        }

    return _logical(run)


def _trialpool(workers: int) -> dict:
    """One ``mean_error_at_rate`` fan-out through a TrialPool of *workers*;
    its executor starts inside the measured run."""
    _, sorted_values = table()
    heapfile = _heapfile()

    def run():
        error = mean_error_at_rate(
            heapfile, sorted_values, POOL_RATE, K,
            trials=POOL_TRIALS, rng=SEED + 7, pool=pool,
        )
        return {"median_error": float(error)}

    with TrialPool(max_workers=workers) as pool:
        return _logical(run, heapfile)


def trialpool_w1(tmp_path) -> dict:
    """Trial engine: bit-identical Monte-Carlo fan-out at 1 worker."""
    return _trialpool(1)


def trialpool_w2(tmp_path) -> dict:
    """Trial engine: bit-identical Monte-Carlo fan-out at 2 workers."""
    return _trialpool(2)


def trialpool_w4(tmp_path) -> dict:
    """Trial engine: bit-identical Monte-Carlo fan-out at 4 workers."""
    return _trialpool(4)


def kernel_page_gather(tmp_path) -> dict:
    """Hot-path kernels: ``HeapFile.read_pages`` over a with-replacement
    page batch (the ``gather_pages`` kernel)."""
    rng = np.random.default_rng(SEED + 8)
    heapfile = _heapfile()
    page_ids = rng.integers(0, heapfile.num_pages, size=4 * BLOCK_SAMPLE)
    return _logical(
        lambda: _sample_result(heapfile.read_pages(page_ids)), heapfile
    )


def kernel_histogram_build(tmp_path) -> dict:
    """Hot-path kernels: ``EquiHeightHistogram.from_values`` on the unsorted
    column (adaptive sort-probe separators plus run-boundary counting)."""
    values, _ = table()

    def run():
        hist = EquiHeightHistogram.from_values(values, K)
        return {
            **_histogram_result(hist),
            "eq_count_sum": int(hist.eq_counts.sum()),
        }

    return _logical(run)


def kernel_recount(tmp_path) -> dict:
    """Hot-path kernels: sort-free ``EquiHeightHistogram.recount`` of the
    full column under fixed sample separators (Figures 5/7)."""
    values, sorted_values = table()
    sample = sample_with_replacement(values, RECORD_SAMPLE, rng=SEED + 9)
    histogram = EquiHeightHistogram.from_values(sample, K)

    def run():
        recounted = histogram.recount(sorted_values)
        return {
            "total": int(recounted.total),
            "count_checksum": int(
                np.multiply(
                    recounted.counts, np.arange(1, recounted.k + 1)
                ).sum()
            ),
            "eq_count_sum": int(recounted.eq_counts.sum()),
        }

    return _logical(run)


def kernel_merge_sorted(tmp_path) -> dict:
    """Hot-path kernels / Section 7.1 ext. 2: one CVB-style
    ``kernels.merge_sorted`` of an increment into the accumulated sample."""
    values, sorted_values = table()
    split = values.size * 3 // 4
    accumulated = sorted_values[:split]
    increment = np.sort(values[split:])

    def run():
        merged = kernels.merge_sorted(accumulated, increment)
        return {
            "size": int(merged.size),
            "is_sorted": bool(np.all(merged[1:] >= merged[:-1])),
            "merged_sum": float(math.fsum(merged.tolist())),
        }

    return _logical(run)


def durability_catalog(tmp_path) -> dict:
    """Crash-safe catalog: a ``CatalogStore`` put/checkpoint/put/reopen
    cycle; the reopen replays the post-checkpoint journal tail."""
    values, _ = table()
    base = StatisticsManager().analyze(
        Table("bench", {"value": values[:4000]}),
        "value",
        k=10,
        f=0.25,
        method="record",
        record_sample_size=200,
        rng=SEED + 12,
    )
    bundles = [
        dataclasses.replace(base, column_name=f"c{i}") for i in range(4)
    ]
    directory = tmp_path / "catalog"

    def run():
        store = CatalogStore(directory)
        for stats in bundles:
            store.put(stats)
        store.checkpoint()
        for stats in bundles[:2]:
            store.put(stats)
        reopened = CatalogStore(directory)
        catalog = reopened.catalog
        return {
            "entries": len(catalog),
            "replayed": reopened.replayed,
            "version_sum": sum(
                catalog.version(name, column)
                for name, column in catalog.keys()
            ),
            "recoveries": sum(reopened.recoveries.values()),
        }

    return _logical(run)


def _durability_trial(seed: int) -> float:
    """Tiny deterministic trial kernel for the resume scenario."""
    draws = np.random.default_rng(seed).standard_normal(64)
    return float(math.fsum(draws.tolist()))


def durability_resume_map(tmp_path) -> dict:
    """Resumable sweeps: a checkpointed TrialPool map, then a full resume
    of it, which must splice every chunk from the journal
    (``repro_pool_chunks_resumed_total``) and equal the first map."""
    seeds = spawn_seeds(SEED + 13, POOL_TRIALS)
    directory = tmp_path / "resume"

    def run():
        with TrialPool(
            max_workers=1, chunk_size=2, checkpoint=RunCheckpoint(directory)
        ) as pool:
            first = pool.map(_durability_trial, seeds)
        with TrialPool(
            max_workers=1,
            chunk_size=2,
            checkpoint=RunCheckpoint(directory, resume=True),
        ) as resumed_pool:
            second = resumed_pool.map(_durability_trial, seeds)
        return {"identical": first == second}

    return _logical(run)


def serve_cache(tmp_path) -> dict:
    """Serving layer: ``estimate_range`` against a hot StatsServer cache
    and BucketIndex, every request a cache hit."""
    values, _ = table()
    stats_server = server(values, SEED + 21)
    analyze(stats_server)
    queries = serve_queries(values, QUERIES, SEED + 22)

    def run():
        hits_before = stats_server.cache.hits
        rows = []
        errors = 0
        for lo, hi in queries:
            response = estimate_range(stats_server, lo, hi)
            if response["ok"]:
                rows.append(float(response["result"]["rows"]))
            else:
                errors += 1
        return {
            "requests": len(queries),
            "rows_fsum": math.fsum(rows),
            "cache_hits": stats_server.cache.hits - hits_before,
            "errors": errors,
        }

    return _logical(run)


def serve_latency(tmp_path) -> dict:
    """Serving layer: one closed-loop loadgen run (warmup build, churn
    refresh, queries); its logical summary."""
    values, _ = table()

    def run():
        logical = loadgen(values)[0]["logical"]
        return {
            "requests": logical["requests"],
            "answers": logical["checksums"]["answers"],
            "rows_fsum": logical["checksums"]["rows_fsum"],
            "refreshes": logical["builds"]["refreshes"],
            "errors": logical["errors"],
        }

    return _logical(run)


def serve_degraded(tmp_path) -> dict:
    """Serving layer: degraded mode and an admission shed.

    The remembered build params gain a 50% transient-fault policy with a
    2-failed-reads budget, so every auto-refresh raises BuildAbortedError
    and each estimate is served from the last-known-good bundle, flagged
    degraded.  The final ANALYZE arrives while the only build slot is held
    and is shed, still answering from the degraded bundle.
    """
    values, _ = table()
    stats_server = server(
        values, SEED + 41,
        admission=AdmissionController(max_inflight=1, max_queue=0),
    )
    analyze(stats_server)
    stats = stats_server.auto.manager.statistics("bench", "value")
    stats.build_params["fault_policy"] = FaultPolicy(
        transient_rate=0.5, seed=SEED + 42
    )
    stats.build_params["retry"] = RetryPolicy(max_attempts=2, seed=SEED + 43)
    stats.build_params["read_budget"] = ReadBudget(max_failed_reads=2)
    queries = serve_queries(values, QUERIES // 4, SEED + 44)

    def run():
        degraded_before = stats_server.degraded_served
        shed_before = stats_server.admission.shed
        stats_server.handle(
            {
                "op": "modify", "table": "bench", "column": "value",
                "rows": CHURN_ROWS,
            }
        )
        rows = []
        all_degraded = True
        for lo, hi in queries:
            response = estimate_range(stats_server, lo, hi)
            rows.append(float(response["result"]["rows"]))
            all_degraded = all_degraded and response["result"]["degraded"]
        stats_server.admission.try_acquire()  # hold the only slot
        try:
            shed_response = stats_server.handle(
                {"op": "analyze", "table": "bench", "column": "value"}
            )
        finally:
            stats_server.admission.release()
        shed_result = shed_response["result"]
        return {
            "requests": len(queries) + 1,
            "rows_fsum": math.fsum(rows),
            "all_degraded": all_degraded,
            "degraded_served": stats_server.degraded_served - degraded_before,
            "shed": stats_server.admission.shed - shed_before,
            "shed_served_degraded": bool(
                shed_response["ok"]
                and shed_result["degraded"]
                and shed_result["admission"] == "shed"
            ),
        }

    return _logical(run)


def telemetry_sketch(tmp_path) -> dict:
    """Equi-height histograms as streaming quantile sketches: ingest,
    quantiles, and merge-order bit-identity.

    The zipf2 column, scaled into (0, 1], is folded serially and through
    four shards merged in two orders; all three exports must be the same
    bytes (the mergeability contract of docs/TELEMETRY.md).
    """
    values, _ = table()
    latencies = values.astype(float) / float(values.max())

    def run():
        def _sketch() -> StreamingQuantileSketch:
            return StreamingQuantileSketch("serve_request_latency")

        serial = _sketch()
        for value in latencies.tolist():
            serial.observe(value)
        bounds = np.linspace(0, latencies.size, 5).astype(int)
        shards = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            shard = _sketch()
            for value in latencies[lo:hi].tolist():
                shard.observe(value)
            shards.append(shard)
        forward = _sketch()
        for shard in shards:
            forward.merge(shard)
        backward = _sketch()
        for shard in reversed(shards):
            backward.merge(shard)
        exports = {serial.to_json(), forward.to_json(), backward.to_json()}
        percentiles = serial.percentiles()
        return {
            "observations": serial.count,
            "occupied_buckets": len(serial),
            "merge_identical": len(exports) == 1,
            "p50": percentiles["p50"],
            "p99": percentiles["p99"],
            "cdf_half": serial.cdf(0.5),
        }

    return _logical(run)


def telemetry_overhead(tmp_path) -> dict:
    """The same loadgen run against telemetry-off and -on servers: the two
    logical summaries must be the same bytes (telemetry is RNG-inert)."""
    values, _ = table()

    def run():
        off, _ = loadgen(values)
        on, stats_server = loadgen(values, telemetry=True)
        return {
            "requests": on["logical"]["requests"],
            "answers": on["logical"]["checksums"]["answers"],
            "rows_fsum": on["logical"]["checksums"]["rows_fsum"],
            "identical": (
                json.dumps(off["logical"], sort_keys=True)
                == json.dumps(on["logical"], sort_keys=True)
            ),
            "telemetry_clock": stats_server.telemetry.clock,
        }

    return _logical(run)


#: Every scenario, in execution order; each is named by its function.
SCENARIOS = (
    record_sampling,
    block_sampling,
    cvb_build,
    distinct_gee,
    selectivity_lookup,
    trialpool_w1,
    trialpool_w2,
    trialpool_w4,
    kernel_page_gather,
    kernel_histogram_build,
    kernel_recount,
    kernel_merge_sorted,
    durability_catalog,
    durability_resume_map,
    serve_cache,
    serve_latency,
    serve_degraded,
    telemetry_sketch,
    telemetry_overhead,
)


def _text(document) -> str:
    """The baseline's JSON rendering of *document*."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def sections(tmp_path_factory) -> dict:
    """Every scenario's logical section: one run each, in order."""
    tmp_path = tmp_path_factory.mktemp("logical_costs")
    return {scenario.__name__: scenario(tmp_path) for scenario in SCENARIOS}


def test_logical_costs_match_the_baseline(sections, golden):
    document = {
        "schema_version": SCHEMA_VERSION,
        "scale": "smoke",
        "seed": SEED,
        "scenarios": {
            name: {"logical": section} for name, section in sections.items()
        },
    }
    text = _text(document)
    # The diff's context lines may not reach the scenario's key, so name
    # the scenarios that moved; pytest shows this output on a failure.
    baseline = pathlib.Path(__file__).resolve().parents[1] / BASELINE
    if baseline.exists():
        committed = json.loads(baseline.read_text())["scenarios"]
        produced = json.loads(text)["scenarios"]
        moved = [n for n in produced if committed.get(n) != produced[n]]
        print("scenarios whose logical costs moved:", *moved or ["none"])
    golden(BASELINE, text)


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda scenario: scenario.__name__
)
def test_scenario_repeats_exactly(scenario, sections, tmp_path):
    """A second run, after every scenario has run once, reads the same
    logical section as the run in sequence: a scenario's costs depend on
    the seed alone, not on its place in the order or on what an earlier
    run left behind (a cache, a pool, a registry, a file)."""
    assert _text(scenario(tmp_path)) == _text(sections[scenario.__name__])


@pytest.mark.parametrize(
    "metric", sorted(_TIMING_METRICS | _NONPORTABLE_METRICS)
)
def test_counters_drop_wall_clock_and_nonportable_series(metric):
    registry = metrics.MetricsRegistry()
    labels = {label: "x" for label in METRICS[metric].labels}
    if metric in _TIMING_METRICS:
        registry.observe(metric, 0.25, **labels)
    else:
        registry.inc(metric, 7, **labels)
    registry.inc("repro_page_reads_total", 3)
    registry.observe("repro_serve_index_probes", 2)
    registry.observe("repro_serve_index_probes", 5)
    assert _counters(registry) == {
        "repro_page_reads_total": 3,
        "repro_serve_index_probes_count": 2,
        "repro_serve_index_probes_sum": 7,
    }
