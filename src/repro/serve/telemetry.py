"""Per-server live telemetry: latency sketch, windowed series, SLOs.

:class:`ServerTelemetry` is the optional (off-by-default) aggregate a
:class:`~repro.serve.server.StatsServer` instruments its request path
with: one :class:`~repro.obs.live.StreamingQuantileSketch` over request
latencies, one :class:`~repro.obs.live.WindowedTimeseries` per declared
event series, and one :class:`~repro.obs.live.SloTracker`, all keyed by
the server's **logical request clock** (each handled request is one
tick).

The exported state is split along the same line as the load generator's
summary (docs/SERVING.md): :meth:`logical_summary` carries only
interleaving-invariant facts (clock, lifetime totals, error-rate SLO
state, objective declarations), so it is byte-identical across client
counts; :meth:`wall_summary` carries everything timing- or
interleaving-dependent (latency quantiles, per-window values, latency
SLO state, the shift verdict).  The CI ``telemetry-smoke`` job byte-diffs
only the logical side, mirroring the PR 8 serve-smoke contract.

Telemetry never consumes randomness and never changes an answer
(RNG-inert, proved by ``tests/serve/test_telemetry.py`` and re-proved by
the ``telemetry_overhead`` logical-cost scenario); when disabled the request
path pays a single attribute check.
"""

from __future__ import annotations

import threading

from ..obs.live import (
    SloObjective,
    SloTracker,
    StreamingQuantileSketch,
    WindowedTimeseries,
    distribution_shift,
)

__all__ = ["DEFAULT_OBJECTIVES", "EVENT_SERIES", "ServerTelemetry"]

#: The declared objective set a server tracks unless told otherwise.
DEFAULT_OBJECTIVES: tuple[SloObjective, ...] = (
    SloObjective("latency_p50", "latency", threshold=0.05, quantile=0.50),
    SloObjective("latency_p99", "latency", threshold=0.25, quantile=0.99),
    SloObjective("error_rate", "error_rate", threshold=0.01),
)

#: Map from instrumentation event kind to its declared series name.
EVENT_SERIES: dict[str, str] = {
    "request": "serve_requests",
    "error": "serve_errors",
    "cache_hit": "serve_cache_hits",
    "cache_miss": "serve_cache_misses",
    "shed": "serve_sheds",
    "degraded": "serve_degraded",
}


class ServerTelemetry:
    """Live telemetry state for one server (thread-safe, logical-clocked).

    Parameters mirror the underlying primitives: the sketch grid
    (``bucket_budget`` log buckets over ``[min_domain, max_domain]``
    seconds), the ring geometry (``window_ticks`` requests per window,
    ``num_windows`` retained), the declared ``objectives`` with their
    ``burn_windows`` streak threshold, and the shift detector's
    ``shift_epsilon`` / ``shift_min_count`` guards.  The reference sketch
    for shift detection is frozen automatically the first time the live
    sketch reaches ``shift_min_count`` observations.
    """

    def __init__(
        self,
        *,
        bucket_budget: int = 64,
        min_domain: float = 1e-6,
        max_domain: float = 60.0,
        window_ticks: int = 64,
        num_windows: int = 8,
        objectives: tuple[SloObjective, ...] | None = None,
        burn_windows: int = 3,
        shift_epsilon: float = 0.25,
        shift_min_count: int = 64,
    ):
        self._lock = threading.Lock()
        self._clock = 0
        self.latency = StreamingQuantileSketch(
            "serve_request_latency",
            bucket_budget=bucket_budget,
            min_domain=min_domain,
            max_domain=max_domain,
        )
        self.reference: StreamingQuantileSketch | None = None
        self.series = {
            name: WindowedTimeseries(
                name, window_ticks=window_ticks, num_windows=num_windows
            )
            for name in sorted(set(EVENT_SERIES.values()))
        }
        self.slo = SloTracker(
            objectives if objectives is not None else DEFAULT_OBJECTIVES,
            burn_windows=burn_windows,
        )
        self._window_ticks = int(window_ticks)
        self._num_windows = int(num_windows)
        self._shift_epsilon = float(shift_epsilon)
        self._shift_min_count = int(shift_min_count)

    # ------------------------------------------------------------------
    # Instrumentation hooks (called from the server's request path)
    # ------------------------------------------------------------------

    @property
    def clock(self) -> int:
        """The logical request clock (requests started so far)."""
        with self._lock:
            return self._clock

    @property
    def window_index(self) -> int:
        """Index of the window containing the current clock."""
        with self._lock:
            return self._clock // self._window_ticks

    def begin_request(self) -> int:
        """Tick the logical clock for one arriving request; return it."""
        with self._lock:
            self._clock += 1
            return self._clock

    def end_request(
        self, tick: int, latency_s: float, *, error: bool = False
    ) -> None:
        """Fold one finished request in at its arrival *tick*."""
        with self._lock:
            self.series["serve_requests"].record(1.0, tick=tick)
            if error:
                self.series["serve_errors"].record(1.0, tick=tick)
            else:
                self.series["serve_errors"].advance(tick)
            self.latency.observe(max(0.0, float(latency_s)))
            if (
                self.reference is None
                and self.latency.count >= self._shift_min_count
            ):
                self.reference = self.latency.copy(
                    name="serve_reference_latency"
                )

    def record_event(self, kind: str) -> None:
        """Record one *kind* event (see :data:`EVENT_SERIES`) at the clock.

        Unknown kinds are ignored rather than raised: the hook is called
        from cache/admission listeners that must never take the serving
        path down.
        """
        name = EVENT_SERIES.get(kind)
        if name is None:
            return
        with self._lock:
            self.series[name].record(1.0, tick=self._clock)

    # ------------------------------------------------------------------
    # Exports — the stats/watch payload halves
    # ------------------------------------------------------------------

    def config(self) -> dict:
        """The declared telemetry configuration (logical, byte-stable)."""
        return {
            "sketch": self.latency.config(),
            "window_ticks": self._window_ticks,
            "num_windows": self._num_windows,
            "burn_windows": self.slo.burn_windows,
            "shift_epsilon": self._shift_epsilon,
            "shift_min_count": self._shift_min_count,
            "objectives": [
                objective.to_dict()
                for objective in sorted(
                    self.slo.objectives, key=lambda o: o.name
                )
            ],
        }

    def logical_summary(self) -> dict:
        """Interleaving-invariant telemetry: safe to byte-diff across runs.

        Evaluating here also advances the error-rate burn streaks — one
        evaluation per ``stats`` request, itself a logical event.
        """
        with self._lock:
            requests = self.series["serve_requests"].total
            errors = self.series["serve_errors"].total
            verdicts = self.slo.evaluate(
                latency_sketch=None, requests=requests, errors=errors
            )
            return {
                "enabled": True,
                "clock": self._clock,
                "config": self.config(),
                "series_totals": {
                    name: series.total
                    for name, series in sorted(self.series.items())
                },
                "latency_count": self.latency.count,
                "slo": [v for v in verdicts if v["kind"] == "error_rate"],
            }

    def wall_summary(self) -> dict:
        """Timing/interleaving-dependent telemetry (never byte-diffed)."""
        with self._lock:
            latency: dict = {"count": self.latency.count}
            if self.latency.count:
                latency.update(self.latency.percentiles())
                latency["min"] = self.latency.min
                latency["max"] = self.latency.max
            verdicts = self.slo.evaluate(
                latency_sketch=self.latency if self.latency.count else None
            )
            shift: dict = {"evaluated": False, "reference_frozen": False}
            if self.reference is not None:
                shift = {
                    **distribution_shift(
                        self.latency,
                        self.reference,
                        epsilon=self._shift_epsilon,
                        min_count=self._shift_min_count,
                    ),
                    "reference_frozen": True,
                }
            return {
                "latency": latency,
                "windows": {
                    name: series.windows()
                    for name, series in sorted(self.series.items())
                },
                "slo": [v for v in verdicts if v["kind"] == "latency"],
                "shift": shift,
            }

    def watch_delta(self, cursor: int = 0) -> dict:
        """Windows with index >= *cursor*, plus the next cursor to poll.

        The cursor is a window index over the logical clock, so two
        clients polling the same request stream see the same cursor
        progression; the per-window *values* are interleaving-dependent
        and sit beside the invariant ``totals``.
        """
        with self._lock:
            window_index = self._clock // self._window_ticks
            return {
                "enabled": True,
                "clock": self._clock,
                "window_ticks": self._window_ticks,
                "cursor": window_index + 1,
                "totals": {
                    name: series.total
                    for name, series in sorted(self.series.items())
                },
                "windows": {
                    name: series.windows_since(cursor)
                    for name, series in sorted(self.series.items())
                },
            }

    def burning(self) -> list[str]:
        """Objective names currently burning (drives ``health``)."""
        with self._lock:
            return self.slo.burning()
