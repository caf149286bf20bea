"""Deterministic closed-loop load generator for the statistics server.

Simulates the paper's motivating deployment — a query optimizer hammering
the statistics catalog millions of times a day — while staying inside the
repo determinism contract: the **logical summary** of a run (request mix,
answer checksums, build/cache/admission counters) is a pure function of
``(profile, server seed)``, bit-identical across repeated runs *and across
client counts*.  Only the ``wall`` section (p50/p99 latency) varies with
the machine.

How client-count independence is achieved:

1. The entire request schedule is generated **globally** from the profile
   seed, then dealt round-robin (client ``i`` takes ``schedule[i::C]``), so
   the executed request multiset never depends on ``C``.
2. Builds happen only in the **sequential phases** (warmup ANALYZE per
   column, then optional churn + a touch that triggers the refresh), so
   every concurrent-phase answer is served from the same frozen bundles.
3. Checksums aggregate with :func:`math.fsum`, which is exactly rounded —
   a pure function of the answer multiset, immune to thread interleaving.

The generator drives either an in-process :class:`StatsServer` (``handle``
called directly, as ``benchmarks/test_logical_costs.py`` does) or a remote
one over the JSON-lines TCP transport (``address=(host, port)``).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError, ReproError
from ..obs import trace as _trace
from ..obs.metrics import observe
from .server import StatsServer

__all__ = ["LoadProfile", "LoadGenerator", "percentile"]

#: Default request mix over the estimate endpoints (weights, normalised).
DEFAULT_MIX: dict[str, float] = {
    "estimate_range": 0.70,
    "estimate_equality": 0.15,
    "estimate_quantile": 0.10,
    "estimate_distinct": 0.05,
}


@dataclass(frozen=True)
class LoadProfile:
    """Parameters of one load run (hashable, printable, reproducible)."""

    requests: int = 200
    clients: int = 4
    seed: int = 0
    churn_rows: int = 0
    mix: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_MIX.items()))
    analyze_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        """Validate counts and the endpoint mix."""
        if self.requests < 0:
            raise ParameterError(
                f"requests must be non-negative, got {self.requests}"
            )
        if self.clients < 1:
            raise ParameterError(f"clients must be >= 1, got {self.clients}")
        if self.churn_rows < 0:
            raise ParameterError(
                f"churn_rows must be non-negative, got {self.churn_rows}"
            )
        if not self.mix or any(w < 0 for _, w in self.mix):
            raise ParameterError("mix must be non-empty with weights >= 0")
        unknown = sorted(set(dict(self.mix)) - set(DEFAULT_MIX))
        if unknown:
            raise ParameterError(f"mix names unknown endpoints: {unknown}")


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (0..1) of *values*, nearest-rank convention."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must be in [0, 1], got {p}")
    if not values:
        return 0.0
    xs = sorted(values)
    rank = max(1, math.ceil(p * len(xs)))
    return xs[rank - 1]


class _InProcessClient:
    """Client that calls ``StatsServer.handle`` directly (no transport)."""

    def __init__(self, server: StatsServer):
        """Bind to *server*."""
        self._server = server

    def request(self, payload: dict) -> dict:
        """One request/response round trip."""
        return self._server.handle(payload)

    def close(self) -> None:
        """Nothing to release for in-process calls."""


class _TcpClient:
    """Client speaking the JSON-lines protocol over one TCP connection."""

    def __init__(self, host: str, port: int):
        """Connect to ``host:port``."""
        self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """One request/response round trip over the connection."""
        self._file.write(
            (json.dumps(payload, sort_keys=True) + "\n").encode()
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ReproError("server closed the connection mid-request")
        return json.loads(line)

    def close(self) -> None:
        """Close the connection."""
        self._file.close()
        self._sock.close()


class LoadGenerator:
    """Closed-loop driver: warmup, optional churn, concurrent query phase.

    Parameters
    ----------
    server:
        In-process :class:`StatsServer` to drive, or ``None`` when using
        *address*.
    address:
        ``(host, port)`` of a remote server (each client thread opens its
        own connection).
    profile:
        The :class:`LoadProfile` describing the run.
    """

    def __init__(
        self,
        server: StatsServer | None = None,
        address: tuple[str, int] | None = None,
        profile: LoadProfile | None = None,
    ):
        """Pick the transport and freeze the profile."""
        if (server is None) == (address is None):
            raise ParameterError(
                "pass exactly one of server= or address="
            )
        self._server = server
        self._address = address
        self.profile = profile or LoadProfile()

    def _client(self):
        """A fresh client for one worker thread."""
        if self._server is not None:
            return _InProcessClient(self._server)
        host, port = self._address
        return _TcpClient(host, port)

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------

    @staticmethod
    def _discover_columns(client) -> list[tuple[str, str]]:
        """Sorted (table, column) pairs served, via the status endpoint."""
        status = _checked(client.request({"op": "status"}))["result"]
        pairs = [
            (table, column)
            for table, columns in sorted(status["columns"].items())
            for column in columns
        ]
        if not pairs:
            raise ParameterError("server has no tables to load against")
        return pairs

    def schedule(self, n_columns: int) -> list[tuple[str, int, float, float]]:
        """The full abstract request schedule, a pure function of the seed.

        Each entry is ``(endpoint, column_index, u1, u2)`` with the ``u``
        draws in ``[0, 1)``; they are mapped onto the column's served
        domain at send time.  Dealing ``schedule[i::clients]`` to client
        ``i`` keeps the multiset independent of the client count.
        """
        rng = np.random.default_rng([self.profile.seed, n_columns])
        names = [name for name, _ in self.profile.mix]
        weights = np.array([w for _, w in self.profile.mix], dtype=float)
        weights = weights / weights.sum()
        cumulative = np.cumsum(weights)
        entries = []
        for _ in range(self.profile.requests):
            pick = float(rng.random())
            endpoint = names[int(np.searchsorted(cumulative, pick, side="right"))]
            column = int(rng.integers(n_columns))
            u1, u2 = float(rng.random()), float(rng.random())
            entries.append((endpoint, column, u1, u2))
        return entries

    @staticmethod
    def _concrete(
        entry: tuple[str, int, float, float],
        columns: list[tuple[str, str]],
        domains: dict[tuple[str, str], tuple[float, float]],
    ) -> dict:
        """Map one abstract schedule entry onto a protocol request."""
        endpoint, column_idx, u1, u2 = entry
        table, column = columns[column_idx % len(columns)]
        lo_d, hi_d = domains[(table, column)]
        width = hi_d - lo_d
        request = {"op": endpoint, "table": table, "column": column}
        if endpoint == "estimate_range":
            a, b = lo_d + min(u1, u2) * width, lo_d + max(u1, u2) * width
            request.update(lo=a, hi=b)
        elif endpoint == "estimate_equality":
            request.update(value=lo_d + u1 * width)
        elif endpoint == "estimate_quantile":
            request.update(q=u1)
        return request

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def run(self) -> dict:
        """Execute the three phases; return the summary document.

        ``summary["logical"]`` is bit-identical across runs and client
        counts; ``summary["wall"]`` carries this run's latency
        distribution (p50/p99 et al.).
        """
        profile = self.profile
        with _trace.span(
            "serve.loadgen",
            requests=profile.requests, clients=profile.clients,
            seed=profile.seed,
        ):
            return self._run_phases()

    def _run_phases(self) -> dict:
        """The actual three-phase body of :meth:`run`."""
        profile = self.profile
        client = self._client()
        counts: dict[str, int] = {}
        checks: dict[str, list[float]] = {
            "rows": [], "values": [], "distinct": [],
        }
        errors = 0
        build_pages = 0

        # Phase 1 — sequential warmup: ANALYZE every column, then probe
        # the served domain (quantiles 0 and 1) for range generation.
        columns = self._discover_columns(client)
        counts["status"] = 1
        domains: dict[tuple[str, str], tuple[float, float]] = {}
        for table, column in columns:
            response = _checked(client.request({
                "op": "analyze", "table": table, "column": column,
                "params": dict(profile.analyze_params),
            }))
            build_pages += int(response["result"]["pages_read"])
            lo = _checked(client.request({
                "op": "estimate_quantile", "table": table,
                "column": column, "q": 0.0,
            }))["result"]["value"]
            hi = _checked(client.request({
                "op": "estimate_quantile", "table": table,
                "column": column, "q": 1.0,
            }))["result"]["value"]
            domains[(table, column)] = (float(lo), float(hi))
            counts["analyze"] = counts.get("analyze", 0) + 1
            counts["estimate_quantile"] = (
                counts.get("estimate_quantile", 0) + 2
            )

        # Phase 2 — sequential churn: report modifications, then touch
        # each column once so the (single-flight) refresh happens *here*,
        # at a deterministic point, not during the concurrent phase.
        if profile.churn_rows:
            for table, column in columns:
                _checked(client.request({
                    "op": "modify", "table": table, "column": column,
                    "rows": profile.churn_rows,
                }))
                touch = _checked(client.request({
                    "op": "estimate_distinct", "table": table,
                    "column": column,
                }))
                checks["distinct"].append(float(touch["result"]["distinct"]))
                counts["modify"] = counts.get("modify", 0) + 1
                counts["estimate_distinct"] = (
                    counts.get("estimate_distinct", 0) + 1
                )

        # Phase 3 — concurrent query phase over the dealt schedule.
        schedule = self.schedule(len(columns))
        latencies: list[list[float]] = [[] for _ in range(profile.clients)]
        results: list[dict] = [
            {"counts": {}, "rows": [], "values": [], "distinct": [],
             "errors": 0}
            for _ in range(profile.clients)
        ]

        def _drive(worker: int) -> None:
            """One client thread: execute its dealt slice in order."""
            worker_client = (
                client if worker == 0 and profile.clients == 1
                else self._client()
            )
            bucket = results[worker]
            try:
                for entry in schedule[worker::profile.clients]:
                    request = self._concrete(entry, columns, domains)
                    start = time.perf_counter()  # repro: noqa[DET002]
                    response = worker_client.request(request)
                    elapsed = time.perf_counter() - start  # repro: noqa[DET002]
                    latencies[worker].append(elapsed)
                    observe("repro_serve_request_seconds", elapsed)
                    op = entry[0]
                    bucket["counts"][op] = bucket["counts"].get(op, 0) + 1
                    if not response.get("ok"):
                        bucket["errors"] += 1
                        continue
                    payload = response["result"]
                    if "rows" in payload:
                        bucket["rows"].append(float(payload["rows"]))
                    if "value" in payload:
                        bucket["values"].append(float(payload["value"]))
                    if "distinct" in payload:
                        bucket["distinct"].append(float(payload["distinct"]))
            finally:
                if worker_client is not client:
                    worker_client.close()

        threads = [
            threading.Thread(target=_drive, args=(w,), name=f"loadgen-{w}")
            for w in range(self.profile.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Merge worker results.  fsum over the concatenated multiset is
        # order-independent, so the dealing never leaks into the checksum.
        for bucket in results:
            for op, n in sorted(bucket["counts"].items()):
                counts[op] = counts.get(op, 0) + n
            checks["rows"].extend(bucket["rows"])
            checks["values"].extend(bucket["values"])
            checks["distinct"].extend(bucket["distinct"])
            errors += bucket["errors"]

        status = _checked(client.request({"op": "status"}))["result"]
        counts["status"] += 1
        client.close()

        all_latencies = [x for bucket in latencies for x in bucket]
        return {
            "logical": {
                "profile": {
                    "requests": profile.requests,
                    "seed": profile.seed,
                    "churn_rows": profile.churn_rows,
                    "mix": [list(pair) for pair in profile.mix],
                },
                "columns": len(columns),
                "requests": {op: counts[op] for op in sorted(counts)},
                "errors": errors,
                "checksums": {
                    "rows_fsum": math.fsum(checks["rows"]),
                    "values_fsum": math.fsum(checks["values"]),
                    "distinct_fsum": math.fsum(checks["distinct"]),
                    "answers": (
                        len(checks["rows"]) + len(checks["values"])
                        + len(checks["distinct"])
                    ),
                },
                "builds": {
                    "warmup_pages_read": build_pages,
                    "refreshes": status["cache"]["refreshes"],
                    "degraded_served": status["degraded_served"],
                },
                "server": {
                    "cache": status["cache"],
                    "admission": status["admission"],
                    "catalog_columns": status["catalog_columns"],
                },
            },
            "wall": {
                "requests_timed": len(all_latencies),
                "p50_s": percentile(all_latencies, 0.50),
                "p99_s": percentile(all_latencies, 0.99),
                "max_s": max(all_latencies) if all_latencies else 0.0,
                "mean_s": (
                    math.fsum(all_latencies) / len(all_latencies)
                    if all_latencies else 0.0
                ),
            },
        }


def _checked(response: dict) -> dict:
    """Raise on an ``ok: false`` response during the sequential phases."""
    if not response.get("ok"):
        raise ReproError(
            f"loadgen setup request failed: {response.get('error')!r} "
            f"({response.get('code')})"
        )
    return response
