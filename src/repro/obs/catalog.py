"""The declared observability surface: every metric and span the library emits.

The registry (:mod:`repro.obs.metrics`) and the trace recorder
(:mod:`repro.obs.trace`) validate emissions against this catalog by default,
so an instrumentation site cannot invent a name that the documentation does
not know about — ``docs/OBSERVABILITY.md`` is kept in lockstep by a test
that diffs the catalog against the doc (``tests/obs/test_docs.py``).

Naming follows the Prometheus conventions: ``repro_`` prefix, ``_total``
suffix for counters, ``_seconds`` for time units.  Label sets are closed:
an emission must supply exactly the labels declared here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MetricSpec",
    "METRICS",
    "SPANS",
    "SKETCHES",
    "SERIES",
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: its name, type, label set, and meaning."""

    name: str
    type: str
    labels: tuple[str, ...]
    help: str


_SPECS = [
    # ------------------------------------------------------------------
    # storage — forwarded 1:1 from IOStats, so exported totals always
    # reconcile exactly with per-file accounting
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_read_attempts_total", COUNTER, (),
        "Physical page-read attempts (successful + failed).",
    ),
    MetricSpec(
        "repro_page_reads_total", COUNTER, (),
        "Successfully delivered page reads (IOStats.page_reads).",
    ),
    MetricSpec(
        "repro_failed_reads_total", COUNTER, (),
        "Read attempts that raised (transient fault or checksum mismatch).",
    ),
    MetricSpec(
        "repro_retries_total", COUNTER, (),
        "Re-attempts issued by a retry policy after a transient fault.",
    ),
    MetricSpec(
        "repro_pages_skipped_total", COUNTER, (),
        "Pages permanently given up on and replaced by fresh draws.",
    ),
    MetricSpec(
        "repro_simulated_latency_seconds_total", COUNTER, (),
        "Simulated seconds spent on read latency and retry backoff.",
    ),
    MetricSpec(
        "repro_fault_events_total", COUNTER, ("kind",),
        "Faults injected by FaultyHeapFile or WriteFaultInjector, by kind "
        "(kind=transient|corrupt|write).",
    ),
    MetricSpec(
        "repro_resilient_reads_total", COUNTER, ("outcome",),
        "read_page_resilient outcomes (outcome=delivered|skipped).",
    ),
    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_block_batches_total", COUNTER, ("mode",),
        "Batches handed out by BlockSampleStream "
        "(mode=take|one_per_block).",
    ),
    MetricSpec(
        "repro_block_pages_delivered_total", COUNTER, (),
        "Readable pages delivered by BlockSampleStream batches.",
    ),
    MetricSpec(
        "repro_record_samples_total", COUNTER, ("mode",),
        "Records delivered by sample_records_from_file "
        "(mode=with_replacement|without_replacement).",
    ),
    # ------------------------------------------------------------------
    # core — the CVB build
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_cvb_builds_total", COUNTER, ("outcome",),
        "Completed CVB runs (outcome=converged|budget_stopped).",
    ),
    MetricSpec(
        "repro_cvb_iterations_total", COUNTER, (),
        "Cross-validation rounds executed (excludes round 0).",
    ),
    MetricSpec(
        "repro_cvb_deviation_ratio", HISTOGRAM, (),
        "Per-round observed error over its stopping threshold "
        "(the f*s/k target of Theorem 7); < 1 means the round passed.",
    ),
    MetricSpec(
        "repro_cvb_pages_sampled", HISTOGRAM, (),
        "Pages consumed per completed CVB build.",
    ),
    MetricSpec(
        "repro_cvb_tuples_sampled", HISTOGRAM, (),
        "Tuples accumulated per completed CVB build.",
    ),
    # ------------------------------------------------------------------
    # engine — ANALYZE and auto-refresh
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_analyze_builds_total", COUNTER, ("method",),
        "StatisticsManager.analyze builds (method=cvb|record|fullscan).",
    ),
    MetricSpec(
        "repro_autostats_requests_total", COUNTER, ("result",),
        "AutoStatistics.ensure_fresh outcomes "
        "(result=fresh|refreshed|degraded).",
    ),
    # ------------------------------------------------------------------
    # experiments — the parallel trial engine
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_pool_maps_total", COUNTER, ("mode",),
        "TrialPool.map calls by execution mode (mode=serial|process).",
    ),
    MetricSpec(
        "repro_pool_trials_total", COUNTER, (),
        "Trials executed across all TrialPool.map calls.",
    ),
    MetricSpec(
        "repro_pool_trial_seconds", HISTOGRAM, (),
        "Per-trial compute time measured inside the workers.",
    ),
    MetricSpec(
        "repro_pool_workers", GAUGE, (),
        "Worker count of the most recent TrialPool.map call.",
    ),
    MetricSpec(
        "repro_pool_executor_events_total", COUNTER, ("event",),
        "Process-pool lifecycle events "
        "(event=started|stopped|terminated).",
    ),
    MetricSpec(
        "repro_pool_chunks_redispatched_total", COUNTER, ("reason",),
        "Chunks deterministically re-dispatched after worker loss "
        "(reason=crash).",
    ),
    MetricSpec(
        "repro_pool_chunks_resumed_total", COUNTER, (),
        "Chunks spliced back from a run-journal checkpoint instead of "
        "re-executing.",
    ),
    MetricSpec(
        "repro_pool_tasks_quarantined_total", COUNTER, (),
        "Chunks quarantined as poison tasks after exhausting their "
        "re-dispatch budget.",
    ),
    # ------------------------------------------------------------------
    # durability — crash-safe persistence and recovery
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_checkpoint_writes_total", COUNTER, ("kind",),
        "Durable write operations, by artifact kind "
        "(kind=snapshot|journal|run_journal|artifact).",
    ),
    MetricSpec(
        "repro_checkpoint_bytes_total", COUNTER, ("kind",),
        "Bytes persisted by durable write operations, by artifact kind "
        "(kind=snapshot|journal|run_journal|artifact).",
    ),
    MetricSpec(
        "repro_catalog_recoveries_total", COUNTER, ("kind",),
        "CatalogStore crash artifacts recovered on open (kind="
        "torn_snapshot|corrupt_snapshot|torn_journal|corrupt_journal).",
    ),
    MetricSpec(
        "repro_journal_replays_total", COUNTER, (),
        "Catalog journal records replayed into memory on store open.",
    ),
    # ------------------------------------------------------------------
    # serve — the statistics server, cache, and admission control
    # ------------------------------------------------------------------
    MetricSpec(
        "repro_serve_requests_total", COUNTER, ("endpoint",),
        "Requests handled by the statistics server, by endpoint "
        "(endpoint=analyze|estimate_range|estimate_equality|"
        "estimate_quantile|estimate_distinct|modify|status|ping|"
        "stats|health|watch).",
    ),
    MetricSpec(
        "repro_serve_cache_events_total", COUNTER, ("event",),
        "Statistics-cache lifecycle events "
        "(event=hit|miss|refresh|evict).",
    ),
    MetricSpec(
        "repro_serve_admission_total", COUNTER, ("decision",),
        "Admission-controller decisions for ANALYZE builds "
        "(decision=admitted|queued|shed).",
    ),
    MetricSpec(
        "repro_serve_degraded_total", COUNTER, (),
        "Requests answered from degraded (fallback) statistics.",
    ),
    MetricSpec(
        "repro_serve_inflight_builds", GAUGE, (),
        "ANALYZE builds currently executing inside the server.",
    ),
    MetricSpec(
        "repro_serve_request_seconds", HISTOGRAM, (),
        "Wall-clock seconds per served request (timing-only; excluded "
        "from the logical-cost baseline).",
    ),
    MetricSpec(
        "repro_serve_index_probes", HISTOGRAM, (),
        "Separator comparisons per BucketIndex lookup (O(log k) by "
        "construction; deterministic, so safe in logical costs).",
    ),
    MetricSpec(
        "repro_serve_uptime_requests", GAUGE, (),
        "Requests handled since server start — the logical uptime clock "
        "(deterministic, unlike wall-clock uptime).",
    ),
    MetricSpec(
        "repro_serve_queue_depth", GAUGE, (),
        "ANALYZE builds currently waiting in the admission queue.",
    ),
]

#: Every metric the library may emit, keyed by name.
METRICS: dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}

#: Every trace span the library may open, with its meaning.  Attribute sets
#: are documented in docs/OBSERVABILITY.md.
SPANS: dict[str, str] = {
    "cli.command": "One CLI subcommand invocation (the trace root).",
    "engine.analyze": "One StatisticsManager.analyze build.",
    "autostats.ensure_fresh": "One AutoStatistics read (freshness check "
                              "plus any rebuild).",
    "cvb.build": "One full CVB adaptive-sampling run.",
    "cvb.iteration": "One CVB cross-validation round (sample, validate, "
                     "merge).",
    "pool.map": "One TrialPool.map fan-out (serial or process).",
    "chaos.sweep": "One chaos_sweep fault-rate sweep.",
    "durability.checkpoint": "One catalog checkpoint (atomic snapshot "
                             "write plus journal truncation).",
    "durability.recover": "One CatalogStore open (snapshot load plus "
                          "journal replay and tail repair).",
    "serve.request": "One request handled by the statistics server.",
    "serve.build": "One ANALYZE build executed on behalf of the server "
                   "(admission-controlled).",
    "serve.loadgen": "One closed-loop load-generator run against a "
                     "server.",
}

#: Every live-telemetry sketch the library may maintain
#: (:class:`repro.obs.live.StreamingQuantileSketch` validates names
#: against this dict).  Documented in docs/TELEMETRY.md.
SKETCHES: dict[str, str] = {
    "serve_request_latency": "Wall-clock seconds per served request "
                             "(the live latency distribution).",
    "serve_reference_latency": "Frozen early snapshot of the request-"
                               "latency sketch — the shift-detection "
                               "baseline.",
}

#: Every windowed telemetry series the library may maintain
#: (:class:`repro.obs.live.WindowedTimeseries` validates names against
#: this dict).  Windows are keyed by the server's logical request clock.
#: Documented in docs/TELEMETRY.md.
SERIES: dict[str, str] = {
    "serve_requests": "Requests completed, per logical window.",
    "serve_errors": "Requests answered with ok=false, per logical window.",
    "serve_cache_hits": "Serving-cache hits, per logical window.",
    "serve_cache_misses": "Serving-cache misses, per logical window.",
    "serve_sheds": "ANALYZE builds shed by admission control, per "
                   "logical window.",
    "serve_degraded": "Requests served from degraded last-known-good "
                      "statistics, per logical window.",
}
