"""Live runtime telemetry primitives: sketches, windows, and SLOs.

``repro.obs.live`` holds the streaming building blocks behind the serve
server's ``stats``/``health``/``watch`` endpoints (docs/TELEMETRY.md):

- :class:`~repro.obs.live.sketch.StreamingQuantileSketch` — a
  bounded-memory, deterministic latency/value sketch that exports to the
  paper's own :class:`~repro.core.histogram.EquiHeightHistogram` and
  answers quantile/CDF queries through the serving layer's
  :class:`~repro.serve.bucket_index.BucketIndex`.
- :class:`~repro.obs.live.window.WindowedTimeseries` — per-window
  rates/gauges over a *logical* clock, so exports stay RNG-inert and
  testable without wall-clock flakiness.
- :class:`~repro.obs.live.slo.SloTracker` /
  :func:`~repro.obs.live.slo.distribution_shift` — declared latency and
  error objectives with burn state, plus a total-variation shift detector
  comparing the live latency sketch against a frozen reference.

Layering note: this subpackage drives the library *from above* (it imports :mod:`repro.core` and
:mod:`repro.serve`), so it is **not** imported by ``repro.obs``'s
``__init__`` — import it explicitly as ``from repro.obs import live``.
All sketch and series names are declared in
:mod:`repro.obs.catalog` (``SKETCHES`` / ``SERIES``) and validated on
construction, exactly like metric emissions.
"""

from __future__ import annotations

from .sketch import StreamingQuantileSketch
from .slo import SloObjective, SloTracker, distribution_shift
from .window import WindowedTimeseries

__all__ = [
    "StreamingQuantileSketch",
    "WindowedTimeseries",
    "SloObjective",
    "SloTracker",
    "distribution_shift",
]
