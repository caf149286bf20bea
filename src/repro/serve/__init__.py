"""Statistics-as-a-service: the `repro serve` server, cache, and loadgen.

The engine layer (:mod:`repro.engine`) is a library: one caller, one
catalog, synchronous ANALYZE.  This package promotes it into a long-lived,
multi-tenant statistics server:

- :mod:`repro.serve.bucket_index` — a tree-like bucket index giving
  O(log k) range/quantile lookups over large histograms, bit-identical to
  the linear :class:`~repro.core.histogram.EquiHeightHistogram` scan.
- :mod:`repro.serve.cache` — an LRU statistics cache whose staleness
  policy is delegated to :class:`~repro.engine.maintenance.AutoStatistics`.
- :mod:`repro.serve.admission` — bounded in-flight ANALYZE builds with a
  wait queue and load shedding into degraded-mode serving.
- :mod:`repro.serve.protocol` — the JSON request/response surface.
- :mod:`repro.serve.server` — the server core (synchronous ``handle``)
  plus a JSON-lines-over-TCP front end with one thread per connection.
- :mod:`repro.serve.loadgen` — a deterministic closed-loop load generator
  whose logical summary is bit-identical across runs and client counts.
- :mod:`repro.serve.telemetry` — optional live runtime telemetry
  (streaming latency sketch, windowed event series, SLO burn tracking)
  behind the ``stats`` / ``health`` / ``watch`` endpoints.
- :mod:`repro.serve.monitor` — the ``repro top`` terminal monitor over
  those endpoints.

Everything here follows the repo determinism contract: logical outputs are
pure functions of (seed, parameters); wall-clock numbers live only in
explicitly timing-labelled fields.  ``docs/SERVING.md`` documents the
surface and is kept in sync by ``tests/serve/test_docs.py``.
"""

from __future__ import annotations

from .admission import AdmissionController, AdmissionDecision
from .bucket_index import BucketIndex
from .cache import StatsCache
from .loadgen import LoadGenerator, LoadProfile
from .protocol import ENDPOINTS, ProtocolError, validate_request
from .server import StatsServer, serve_forever
from .telemetry import ServerTelemetry

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BucketIndex",
    "StatsCache",
    "LoadGenerator",
    "LoadProfile",
    "ENDPOINTS",
    "ProtocolError",
    "validate_request",
    "StatsServer",
    "serve_forever",
    "ServerTelemetry",
]
