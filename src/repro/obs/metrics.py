"""Process-local metrics registry: counters, gauges, equi-height histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`).  Instrumentation sites call the module-level helpers
:func:`inc` / :func:`set_gauge` / :func:`observe`; when no registry is
active (the default) those helpers return immediately, so instrumented hot
paths cost one no-op function call.  Enable collection around any build or
experiment with :func:`collecting`::

    from repro.obs import metrics

    with metrics.collecting() as registry:
        run_some_build()
    print(metrics.render_text(registry))

Design points:

- **Declared surface.**  Emissions are validated against the catalog
  (:mod:`repro.obs.catalog`): unknown names or wrong label sets raise
  immediately, which keeps ``docs/OBSERVABILITY.md`` trustworthy.
- **Histograms are equi-height** — dogfooding the paper.  A histogram
  metric stores its raw observations and the exporters cut them into
  equi-height (quantile) buckets, so bucket boundaries adapt to the data
  instead of being guessed up front.
- **Mergeable.**  :meth:`MetricsRegistry.merge` /
  :meth:`~MetricsRegistry.merge_snapshot` fold another registry's state in:
  counters and gauges add, histogram observations concatenate.  The merge
  is associative and commutative (a property test locks this down), so
  cross-process aggregation through
  :class:`~repro.experiments.parallel.TrialPool` gives identical exports
  for any worker count or chunking.  (Integer-valued counters and
  histogram multisets are bit-exact; a float-valued counter such as
  ``repro_simulated_latency_seconds_total`` is equal only up to
  float-addition reordering, ~1 ulp, because workers sum their chunks
  first.)
- **Deterministic exports.**  :func:`render_text` and :func:`render_json`
  sort by metric name and label value and carry no timestamps, so they are
  golden-file comparable.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from typing import Iterator

from ..exceptions import ParameterError
from .catalog import COUNTER, GAUGE, HISTOGRAM, METRICS, MetricSpec

__all__ = [
    "SCHEMA_VERSION",
    "MetricsRegistry",
    "collecting",
    "active_registry",
    "enabled",
    "inc",
    "set_gauge",
    "observe",
    "render_text",
    "render_json",
    "render_prom",
    "equi_height_buckets",
]

#: Version stamp of the :func:`render_json` document layout.  Bump on any
#: breaking change to the exported structure.
SCHEMA_VERSION = 1

#: Label-set key: canonical, hashable form of a ``**labels`` mapping.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    """Canonical (sorted, stringified) form of a label mapping."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A process-local bag of named counters, gauges and histograms.

    Parameters
    ----------
    strict:
        When True (default), every emission is validated against
        :data:`repro.obs.catalog.METRICS`: the name must be declared, with
        the declared type and exactly the declared label keys.  Pass False
        for ad-hoc metrics in tests or exploratory scripts.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._counters: dict[tuple[str, _LabelKey], float] = {}
        self._gauges: dict[tuple[str, _LabelKey], float] = {}
        self._histograms: dict[tuple[str, _LabelKey], list[float]] = {}
        # The serving layer emits from many threads at once; without this
        # lock the read-modify-write in inc() loses updates.  Counter values
        # stay exact under concurrency (integer-valued additions commute),
        # so deterministic workloads export identically for any thread
        # interleaving.
        self._mutate_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _check(self, name: str, type_: str, labels: dict) -> None:
        if not self.strict:
            return
        spec = METRICS.get(name)
        if spec is None:
            raise ParameterError(
                f"metric {name!r} is not declared in repro.obs.catalog.METRICS"
            )
        if spec.type != type_:
            raise ParameterError(
                f"metric {name!r} is a {spec.type}, not a {type_}"
            )
        if set(labels) != set(spec.labels):
            raise ParameterError(
                f"metric {name!r} takes labels {sorted(spec.labels)}, "
                f"got {sorted(labels)}"
            )

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        """Add *amount* (>= 0) to counter *name* for the given labels."""
        if amount < 0:
            raise ParameterError(
                f"counters only go up; got amount={amount} for {name!r}"
            )
        self._check(name, COUNTER, labels)
        key = (name, _label_key(labels))
        with self._mutate_lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge *name* to *value* for the given labels."""
        self._check(name, GAUGE, labels)
        with self._mutate_lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation of *value* into histogram *name*."""
        self._check(name, HISTOGRAM, labels)
        key = (name, _label_key(labels))
        with self._mutate_lock:
            self._histograms.setdefault(key, []).append(float(value))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other*'s state into this registry (returns ``self``).

        Counters and gauges add (a gauge is a per-process level, so the
        aggregate across processes is the fleet-wide total); histogram
        observations concatenate.  Merging is associative and commutative:
        any split of the same emissions over worker registries exports
        identically once merged.
        """
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: dict) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` dict in — the picklable twin of
        :meth:`merge`, used to ship worker-side registries back through a
        process pool."""
        with self._mutate_lock:
            for name, labels, value in snapshot.get("counters", []):
                key = (name, _label_key(labels))
                self._counters[key] = self._counters.get(key, 0.0) + value
            for name, labels, value in snapshot.get("gauges", []):
                key = (name, _label_key(labels))
                self._gauges[key] = self._gauges.get(key, 0.0) + value
            for name, labels, values in snapshot.get("histograms", []):
                key = (name, _label_key(labels))
                self._histograms.setdefault(key, []).extend(values)
        return self

    def snapshot(self) -> dict:
        """Plain-data (picklable, JSON-able) copy of the registry state."""
        with self._mutate_lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        """Build the snapshot dict; caller holds the mutation lock."""
        return {
            "counters": [
                [name, dict(labels), value]
                for (name, labels), value in sorted(self._counters.items())
            ],
            "gauges": [
                [name, dict(labels), value]
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                [name, dict(labels), list(values)]
                for (name, labels), values in sorted(self._histograms.items())
            ],
        }

    def reset(self) -> None:
        """Drop every recorded value (declared metrics stay declared)."""
        with self._mutate_lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get((name, _label_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels) -> float:
        """Current value of a gauge (0 when never set)."""
        return self._gauges.get((name, _label_key(labels)), 0.0)

    def observations(self, name: str, **labels) -> list[float]:
        """Raw observations of a histogram, in recording order."""
        return list(self._histograms.get((name, _label_key(labels)), []))

    def names(self) -> list[str]:
        """Sorted names of every metric that has recorded data."""
        keys = (
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )
        return sorted({name for name, _ in keys})

    def __len__(self) -> int:
        """Number of (name, label-set) series holding data."""
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )


# ----------------------------------------------------------------------
# Active-registry plumbing (the off-by-default-cheap part)
# ----------------------------------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def enabled() -> bool:
    """True when a registry is currently collecting."""
    return _ACTIVE is not None


def active_registry() -> MetricsRegistry | None:
    """The currently collecting registry, or ``None``."""
    return _ACTIVE


@contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Collect metrics inside a ``with`` block, restoring the previous
    active registry (if any) on exit — safe to nest, which is how
    per-trial worker registries coexist with an enabled parent."""
    global _ACTIVE
    previous = _ACTIVE
    registry = registry if registry is not None else MetricsRegistry()
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter on the active registry; no-op when disabled."""
    if _ACTIVE is not None:
        _ACTIVE.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active registry; no-op when disabled."""
    if _ACTIVE is not None:
        _ACTIVE.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Observe into a histogram on the active registry; no-op when
    disabled."""
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value, **labels)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def equi_height_buckets(
    values: list[float], k: int = 8
) -> list[dict]:
    """Cut *values* into at most *k* equi-height buckets.

    Returns ``[{"le": upper_bound, "count": n}, ...]`` where each bucket
    holds ~``len(values)/k`` observations — the same construction the
    paper's histograms use, applied to the telemetry itself.  The cut is a
    pure function of the sorted multiset, so merge order never changes it.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return []
    k = min(k, n)
    buckets: list[dict] = []
    prev = 0
    for i in range(1, k + 1):
        hi = round(n * i / k)
        if hi <= prev:
            continue
        buckets.append({"le": xs[hi - 1], "count": hi - prev})
        prev = hi
    return buckets


def _fmt(value: float) -> str:
    """Stable numeric formatting for the text exporter."""
    if float(value).is_integer():
        return str(int(value))
    return format(value, ".10g")


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _spec_for(name: str) -> MetricSpec | None:
    return METRICS.get(name)


def render_text(registry: MetricsRegistry, bucket_count: int = 8) -> str:
    """Prometheus-style text exposition of *registry*.

    Series are sorted by metric name then label value; histogram metrics
    render their equi-height buckets plus ``_count`` / ``_sum`` lines.  No
    timestamps are emitted, so output is stable across runs of the same
    deterministic build.
    """
    snap = registry.snapshot()
    lines: list[str] = []
    by_name: dict[str, list[tuple[str, str, list[str]]]] = {}

    for kind, entries in ((COUNTER, snap["counters"]), (GAUGE, snap["gauges"])):
        for name, labels, value in entries:
            by_name.setdefault(name, []).append(
                (kind, "", [f"{name}{_label_str(labels)} {_fmt(value)}"])
            )
    for name, labels, values in snap["histograms"]:
        body = []
        for bucket in equi_height_buckets(values, bucket_count):
            bucket_labels = dict(labels)
            bucket_labels["le"] = _fmt(bucket["le"])
            body.append(
                f"{name}_bucket{_label_str(bucket_labels)} "
                f"{bucket['count']}"
            )
        body.append(f"{name}_count{_label_str(labels)} {len(values)}")
        # fsum is exactly rounded, so the sum is a pure function of the
        # observation multiset — merge order can never leak into the export.
        body.append(
            f"{name}_sum{_label_str(labels)} {_fmt(math.fsum(values))}"
        )
        by_name.setdefault(name, []).append((HISTOGRAM, "", body))

    for name in sorted(by_name):
        spec = _spec_for(name)
        kind = spec.type if spec else by_name[name][0][0]
        help_text = spec.help if spec else ""
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for _, _, body in by_name[name]:
            lines.extend(body)
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_escape_help(text: str) -> str:
    """Escape a HELP string per the Prometheus text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_prom_escape_label(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prom(registry: MetricsRegistry, bucket_count: int = 8) -> str:
    """Strict Prometheus text-exposition rendering of *registry*.

    Differs from :func:`render_text` (which is Prometheus-*style* but keeps
    per-bucket counts for readability) in the ways a real scraper cares
    about: histogram ``_bucket`` series carry **cumulative** counts, a
    closing ``le="+Inf"`` bucket equals ``_count``, label values are
    escaped per the exposition format, and HELP text is
    newline/backslash-escaped.  Bucket boundaries are still the
    equi-height cut of the observation multiset (deterministic, merge
    -order-free), so the output is golden-file comparable.  No timestamps
    are emitted.
    """
    snap = registry.snapshot()
    by_name: dict[str, list[str]] = {}

    for kind, entries in ((COUNTER, snap["counters"]), (GAUGE, snap["gauges"])):
        for name, labels, value in entries:
            by_name.setdefault(name, []).append(
                f"{name}{_prom_label_str(labels)} {_fmt(value)}"
            )
    for name, labels, values in snap["histograms"]:
        body = by_name.setdefault(name, [])
        cumulative = 0
        for bucket in equi_height_buckets(values, bucket_count):
            cumulative += bucket["count"]
            bucket_labels = dict(labels)
            bucket_labels["le"] = _fmt(bucket["le"])
            body.append(
                f"{name}_bucket{_prom_label_str(bucket_labels)} {cumulative}"
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        body.append(f"{name}_bucket{_prom_label_str(inf_labels)} {len(values)}")
        body.append(f"{name}_count{_prom_label_str(labels)} {len(values)}")
        body.append(
            f"{name}_sum{_prom_label_str(labels)} {_fmt(math.fsum(values))}"
        )

    lines: list[str] = []
    for name in sorted(by_name):
        spec = _spec_for(name)
        if spec is not None:
            lines.append(f"# HELP {name} {_prom_escape_help(spec.help)}")
            lines.append(f"# TYPE {name} {spec.type}")
        lines.extend(by_name[name])
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(registry: MetricsRegistry, bucket_count: int = 8) -> str:
    """JSON exposition of *registry*: deterministic ordering, no
    timestamps, histogram buckets precomputed equi-height.  The document
    carries a top-level ``schema_version`` (:data:`SCHEMA_VERSION`)."""
    snap = registry.snapshot()
    out = []
    for name, labels, value in snap["counters"]:
        out.append(
            {"name": name, "type": COUNTER, "labels": labels, "value": value}
        )
    for name, labels, value in snap["gauges"]:
        out.append(
            {"name": name, "type": GAUGE, "labels": labels, "value": value}
        )
    for name, labels, values in snap["histograms"]:
        out.append(
            {
                "name": name,
                "type": HISTOGRAM,
                "labels": labels,
                "count": len(values),
                "sum": math.fsum(values),
                "buckets": equi_height_buckets(values, bucket_count),
            }
        )
    out.sort(key=lambda m: (m["name"], sorted(m["labels"].items())))
    return (
        json.dumps(
            {"schema_version": SCHEMA_VERSION, "metrics": out},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
