"""Admission control for ANALYZE builds: bounded in-flight work + queue.

A statistics server must not let a burst of cold columns or a modification
wave fan out into unbounded concurrent table scans.  The controller here
implements the classic three-state policy:

- **admitted** — an in-flight slot was free; the build runs now.
- **queued** — all slots busy but the wait queue has room; the caller
  blocks (bounded by ``timeout``) until a slot frees up, then runs.
- **shed** — slots and queue both full (or the queue wait timed out); the
  build is refused and the server falls back to degraded-mode serving
  (last-known-good statistics via :meth:`repro.serve.cache.StatsCache.peek`
  and :func:`repro.engine.resilience.mark_degraded` semantics).

The controller is plain ``threading`` — the TCP front end answers each
connection on its own thread, so one implementation serves both the TCP
server and in-process load generators.  The front end puts no cap of its
own on concurrent requests, so this controller alone bounds how many
explicit and cold builds run at once.  Decision counters are plain
integers; under a sequential workload they are fully deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from ..exceptions import ParameterError
from ..obs.metrics import inc, set_gauge

__all__ = ["AdmissionDecision", "AdmissionController"]


class AdmissionDecision:
    """The three admission outcomes (string constants)."""

    ADMITTED = "admitted"
    QUEUED = "queued"
    SHED = "shed"


class AdmissionController:
    """Bounded in-flight builds with a bounded wait queue.

    Parameters
    ----------
    max_inflight:
        Builds allowed to execute concurrently.
    max_queue:
        Callers allowed to wait for a slot; arrivals beyond this are shed.
    timeout:
        Seconds a queued caller waits before giving up (shed).  ``None``
        waits indefinitely.
    """

    def __init__(
        self,
        max_inflight: int = 2,
        max_queue: int = 8,
        timeout: float | None = 30.0,
    ):
        """Validate limits and initialise the condition variable."""
        if max_inflight < 1:
            raise ParameterError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_queue < 0:
            raise ParameterError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.timeout = timeout
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        #: Optional observation hook ``listener(kind)`` — the server wires
        #: live telemetry in here (``kind="shed"`` on every shed decision).
        #: Must never raise; it is called with the controller lock held.
        self.listener = None

    # ------------------------------------------------------------------
    # Slot protocol
    # ------------------------------------------------------------------

    def try_acquire(self) -> str:
        """Request a build slot; returns the admission decision.

        On ``admitted``/``queued`` the caller holds a slot and **must**
        call :meth:`release` when the build finishes; on ``shed`` it holds
        nothing.  Prefer the :meth:`slot` context manager.
        """
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self.admitted += 1
                self._publish()
                inc("repro_serve_admission_total", decision="admitted")
                return AdmissionDecision.ADMITTED
            if self._queued >= self.max_queue:
                self.shed += 1
                inc("repro_serve_admission_total", decision="shed")
                self._notify_shed()
                return AdmissionDecision.SHED
            self._queued += 1
            self._publish()
            try:
                got = self._cond.wait_for(
                    lambda: self._inflight < self.max_inflight,
                    timeout=self.timeout,
                )
            finally:
                self._queued -= 1
                self._publish()
            if not got:
                self.shed += 1
                inc("repro_serve_admission_total", decision="shed")
                self._notify_shed()
                return AdmissionDecision.SHED
            self._inflight += 1
            self.queued += 1
            self._publish()
            inc("repro_serve_admission_total", decision="queued")
            return AdmissionDecision.QUEUED

    def release(self) -> None:
        """Return a held slot and wake one queued waiter."""
        with self._cond:
            if self._inflight <= 0:
                raise ParameterError("release() without a held slot")
            self._inflight -= 1
            self._publish()
            self._cond.notify()

    @contextmanager
    def slot(self) -> Iterator[str]:
        """Context manager over :meth:`try_acquire`/:meth:`release`.

        Yields the decision; releases the slot on exit unless shed::

            with controller.slot() as decision:
                if decision == AdmissionDecision.SHED:
                    ...  # degrade
                else:
                    ...  # run the build
        """
        decision = self.try_acquire()
        try:
            yield decision
        finally:
            if decision != AdmissionDecision.SHED:
                self.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _publish(self) -> None:
        """Mirror in-flight/queue levels to gauges (no-op when obs is off)."""
        set_gauge("repro_serve_inflight_builds", float(self._inflight))
        set_gauge("repro_serve_queue_depth", float(self._queued))

    def _notify_shed(self) -> None:
        """Tell the telemetry listener (if any) about one shed decision."""
        if self.listener is not None:
            self.listener("shed")

    @property
    def inflight(self) -> int:
        """Builds currently holding a slot."""
        with self._cond:
            return self._inflight

    @property
    def queue_depth(self) -> int:
        """Callers currently waiting in the admission queue."""
        with self._cond:
            return self._queued

    def counters(self) -> dict[str, int]:
        """Decision totals (admitted/queued/shed) since construction."""
        with self._cond:
            return {
                "admitted": self.admitted,
                "queued": self.queued,
                "shed": self.shed,
            }
