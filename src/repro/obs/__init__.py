"""repro.obs — the observability layer: metrics, trace spans, profiling hooks.

A zero-dependency subsystem the rest of the library reports into:

- :mod:`repro.obs.metrics` — a process-local **metrics registry**
  (counters, gauges, equi-height histogram metrics with label support),
  mergeable across :class:`~repro.experiments.parallel.TrialPool` workers,
  with deterministic text/JSON exporters;
- :mod:`repro.obs.trace` — **trace spans** emitting a structured event log
  with wall-clock and monotonic timings plus per-span IOStats deltas;
- :mod:`repro.obs.catalog` — the **declared surface**: every metric name
  and span name the library may emit, which emissions are validated
  against and which ``docs/OBSERVABILITY.md`` documents exhaustively;
- :mod:`repro.obs.live` — **live telemetry primitives** (streaming
  quantile sketch, windowed timeseries, SLO tracker) for long-running
  processes such as the statistics server.  Unlike its siblings it drives
  the library from above (it builds histograms and bucket indexes), so it
  is *not* imported here; import it explicitly as
  ``from repro.obs import live``.

Everything is **off by default and cheap when off**: with no active
registry or recorder, each hook is a single no-op call, and instrumentation
never touches randomness — builds are bit-identical with observability on
or off (a regression test enforces this).

Layering note: ``obs`` sits *below* every other subpackage (this package's
``__init__`` pulls in modules that import only :mod:`repro.exceptions`),
precisely so that storage, sampling, core, engine and experiments can all
report into it without cycles.  The from-above subpackage ``live`` is
the deliberate exception and stays out of this ``__init__``.

Quick tour::

    from repro.obs import metrics, trace

    with trace.tracing() as recorder, metrics.collecting() as registry:
        stats = manager.analyze(table, "amount", k=100, f=0.2, rng=0)

    print(metrics.render_text(registry))
    recorder.write("build-trace.jsonl")

Or from the shell: ``python -m repro metrics demo zipf2`` and the
``--trace FILE`` flag of the ``figure`` / ``chaos`` subcommands.
"""

from . import catalog, metrics, trace
from .catalog import METRICS, SPANS, MetricSpec
from .metrics import (
    MetricsRegistry,
    collecting,
    render_json,
    render_text,
)
from .trace import SpanRecord, TraceRecorder, span, tracing

__all__ = [
    "catalog",
    "metrics",
    "trace",
    "METRICS",
    "SPANS",
    "MetricSpec",
    "MetricsRegistry",
    "collecting",
    "render_json",
    "render_text",
    "SpanRecord",
    "TraceRecorder",
    "span",
    "tracing",
]
