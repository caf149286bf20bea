"""The statistics server: synchronous core + threaded JSON-lines front end.

:class:`StatsServer` is the transport-free core — ``handle(request)``
takes one protocol request (a dict) and returns one response (a dict).
In-process callers (the load generator, the bench scenarios, tests) call
it directly from any number of threads; the TCP front end
(:func:`serve_forever`) gives each connection its own thread, which reads
a request line, calls ``handle`` and writes the answer, so a slow ANALYZE
blocks only the connection that asked for it.

Determinism: every ANALYZE executed by the server draws its RNG from
``(server seed, table name, column name, build number)`` — *not* from
request arrival order — so the statistics that end up in the catalog are a
pure function of the request multiset.  That is what makes the load
generator's logical summaries bit-identical across client counts.

Degraded-mode serving: when admission control sheds a build, the server
answers from the last-known-good bundle (cache or catalog) flagged
``degraded``, mirroring :func:`repro.engine.resilience.build_or_fallback`.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
import zlib

from ..durability import CatalogStore, atomic_write_text
from ..engine.maintenance import AutoStatistics, RefreshPolicy
from ..engine.statistics import ColumnStatistics, StatisticsManager
from ..engine.table import Table
from ..exceptions import ReproError, StatisticsNotFoundError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .admission import AdmissionController, AdmissionDecision
from .cache import CacheEntry, StatsCache
from .protocol import SHUTDOWN_OP, ProtocolError, validate_request
from .telemetry import ServerTelemetry

__all__ = ["ServerOverloadError", "StatsServer", "serve_forever"]

#: Build parameters used for cold builds triggered by estimate endpoints
#: (an explicit ``analyze`` request can override any of them via `params`).
DEFAULT_BUILD_PARAMS: dict = {"k": 64, "f": 0.1, "gamma": 0.05}

#: Longest request line (bytes) the TCP front end will frame; a longer
#: line gets a ``ProtocolError`` envelope and the connection is closed.
LINE_LIMIT = 64 * 1024


class ServerOverloadError(ReproError):
    """Build shed by admission control with no last-known-good to serve."""


class StatsServer:
    """Multi-tenant statistics server over a set of in-memory tables.

    Parameters
    ----------
    tables:
        Mapping of table name to :class:`~repro.engine.table.Table`; more
        can be registered later with :meth:`add_table`.
    seed:
        Root seed for every server-side ANALYZE (see module docstring).
    cache_capacity:
        LRU capacity (columns) of the serving cache.
    policy:
        Staleness policy forwarded to :class:`AutoStatistics`.
    admission:
        Admission controller for ANALYZE builds (default: 2 in-flight,
        queue of 8).
    store:
        Optional :class:`~repro.durability.CatalogStore` (or a directory
        path for one).  Statistics are then journaled crash-safely and the
        server **warm-starts**: bundles recovered from the store serve
        immediately, no rebuild needed.
    build_params:
        Default ANALYZE parameters for cold builds (merged under
        :data:`DEFAULT_BUILD_PARAMS`).
    telemetry:
        Live telemetry (docs/TELEMETRY.md), **off by default**.  Pass
        ``True`` for a default-configured
        :class:`~repro.serve.telemetry.ServerTelemetry`, or a
        pre-configured instance.  When off, the request path pays one
        attribute check and the ``stats``/``watch`` endpoints answer
        ``enabled: false``.
    """

    def __init__(
        self,
        tables: dict[str, Table] | None = None,
        *,
        seed: int = 0,
        cache_capacity: int = 128,
        policy: RefreshPolicy | None = None,
        admission: AdmissionController | None = None,
        store: CatalogStore | str | None = None,
        build_params: dict | None = None,
        telemetry: ServerTelemetry | bool | None = None,
    ):
        """Wire the engine stack (catalog → manager → autostats → cache)."""
        self.seed = int(seed)
        self.store = None
        if store is not None:
            self.store = (
                store if isinstance(store, CatalogStore)
                else CatalogStore(store)
            )
        manager = StatisticsManager(
            catalog=self.store.catalog if self.store is not None else None
        )
        self.auto = AutoStatistics(manager, policy)
        self.cache = StatsCache(self.auto, capacity=cache_capacity)
        self.admission = admission or AdmissionController()
        self.tables: dict[str, Table] = dict(tables or {})
        self.build_params = dict(DEFAULT_BUILD_PARAMS)
        self.build_params.update(build_params or {})
        self.request_counts: dict[str, int] = {}
        self.degraded_served = 0
        self.uptime_requests = 0
        self._counts_lock = threading.Lock()
        if telemetry is True:
            telemetry = ServerTelemetry()
        self.telemetry: ServerTelemetry | None = telemetry or None
        if self.telemetry is not None:
            # Observation-only listeners: cache and admission events feed
            # the windowed series without the server polling counters.
            self.cache.listener = self.telemetry.record_event
            self.admission.listener = self.telemetry.record_event

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_table(self, table: Table) -> None:
        """Register *table* for serving (replaces any same-named table)."""
        self.tables[table.name] = table

    def _table(self, name: str) -> Table:
        """Resolve a table name or raise the protocol's not-found error."""
        table = self.tables.get(name)
        if table is None:
            raise StatisticsNotFoundError(
                f"unknown table {name!r}; serving: {sorted(self.tables)}"
            )
        return table

    # ------------------------------------------------------------------
    # Deterministic build seed
    # ------------------------------------------------------------------

    def _build_seed(self, table_name: str, column_name: str) -> list[int]:
        """Seed of the RNG for the *next* build of one column.

        ``[seed, crc32(table), crc32(column), build#]`` where ``build#`` is
        the catalog version the build will create — a pure function of how
        many builds preceded it on this column, never of which client or
        thread triggered it.  The generator itself is constructed only when
        a build runs (:func:`repro._rng.ensure_rng`), so a cache hit pays
        for four integers, not for seeding a generator.
        """
        version = self.auto.manager.catalog.version(table_name, column_name)
        return [
            self.seed,
            zlib.crc32(table_name.encode()),
            zlib.crc32(column_name.encode()),
            version + 1,
        ]

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: object) -> dict:
        """Answer one protocol request; never raises on bad input.

        Thread-safe: the TCP front end and the load generator call this
        from many threads concurrently.
        """
        try:
            op, fields = validate_request(request)
        except ProtocolError as exc:
            return {
                "ok": False, "op": None,
                "error": str(exc), "code": "ProtocolError",
            }
        telemetry = self.telemetry
        if telemetry is not None:
            tick = telemetry.begin_request()
            started = time.perf_counter()  # repro: noqa[DET002] telemetry-only timing
        self._count(op)
        with _trace.span("serve.request", op=op) as span:
            try:
                result = self._dispatch(op, fields)
            except ReproError as exc:
                span.set(outcome="error")
                if telemetry is not None:
                    telemetry.end_request(
                        tick,
                        time.perf_counter() - started,  # repro: noqa[DET002] telemetry-only timing
                        error=True,
                    )
                return {
                    "ok": False, "op": op,
                    "error": str(exc), "code": type(exc).__name__,
                }
            span.set(outcome="ok")
            if telemetry is not None:
                telemetry.end_request(
                    tick,
                    time.perf_counter() - started,  # repro: noqa[DET002] telemetry-only timing
                )
            return {"ok": True, "op": op, "result": result}

    def _count(self, op: str) -> None:
        """Bump the per-endpoint request counters (plain + metric)."""
        with self._counts_lock:
            self.request_counts[op] = self.request_counts.get(op, 0) + 1
            uptime = self.uptime_requests = self.uptime_requests + 1
        _metrics.inc("repro_serve_requests_total", endpoint=op)
        _metrics.set_gauge("repro_serve_uptime_requests", float(uptime))

    def _dispatch(self, op: str, fields: dict) -> dict:
        """Route a validated request to its endpoint implementation."""
        if op == "ping":
            return {"pong": True}
        if op == "status":
            return self.status()
        if op == "modify":
            table = self._table(fields["table"])
            table.column(fields["column"])  # CatalogError when unknown
            self.auto.record_modifications(
                table.name, fields["column"], fields["rows"]
            )
            return {"recorded": fields["rows"]}
        if op == "analyze":
            return self._handle_analyze(fields)
        if op == "stats":
            return self._handle_stats()
        if op == "health":
            return self._handle_health()
        if op == "watch":
            return self._handle_watch(fields.get("cursor", 0))
        return self._handle_estimate(op, fields)

    # -- ANALYZE -------------------------------------------------------

    def _handle_analyze(self, fields: dict) -> dict:
        """Admission-controlled explicit ANALYZE."""
        table = self._table(fields["table"])
        column = fields["column"]
        requested = fields.get("params") or {}
        # A sample or bucket count beyond the table's rows would only
        # ask numpy for an absurd allocation; the defaults stay unchecked
        # so a table smaller than the default k still builds.
        for name in ("k", "record_sample_size"):
            if requested.get(name, 0) > table.num_rows:
                raise ProtocolError(
                    f"params.{name}={requested[name]} exceeds the "
                    f"{table.num_rows} rows of table {table.name!r}"
                )
        params = dict(self.build_params)
        params.update(requested)
        with self.admission.slot() as decision:
            if decision == AdmissionDecision.SHED:
                return self._degraded_answer(table.name, column)
            stats = self._build(table, column, params)
        entry = self.cache.install(stats)
        return {
            "summary": stats.summary(),
            "n": stats.n,
            "k": stats.histogram.k,
            "pages_read": stats.pages_read,
            "version": entry.version,
            "degraded": stats.degraded,
            "admission": decision,
        }

    def _build(self, table: Table, column: str, params: dict) -> ColumnStatistics:
        """Run one ANALYZE while holding an admission slot."""
        with _trace.span("serve.build", table=table.name, column=column):
            return self.auto.analyze(
                table, column, rng=self._build_seed(table.name, column),
                **params,
            )

    def _degraded_answer(self, table_name: str, column: str) -> dict:
        """Shed path: last-known-good bundle or an overload error."""
        entry = self.cache.peek(table_name, column)
        stats = entry.statistics if entry is not None else None
        if stats is None:
            try:
                stats = self.auto.manager.statistics(table_name, column)
            except StatisticsNotFoundError:
                raise ServerOverloadError(
                    f"build of {table_name}.{column} shed by admission "
                    "control and no previous statistics exist"
                ) from None
        with self._counts_lock:
            self.degraded_served += 1
        _metrics.inc("repro_serve_degraded_total")
        if self.telemetry is not None:
            self.telemetry.record_event("degraded")
        return {
            "summary": stats.summary(),
            "n": stats.n,
            "k": stats.histogram.k,
            "pages_read": 0,
            "version": self.auto.manager.catalog.version(table_name, column),
            "degraded": True,
            "admission": AdmissionDecision.SHED,
        }

    # -- Estimates -----------------------------------------------------

    def _serving_entry(self, table: Table, column: str) -> CacheEntry:
        """The serving bundle, cold-building (through admission) if needed."""
        seed = self._build_seed(table.name, column)
        try:
            return self.cache.lookup(table, column, rng=seed)
        except StatisticsNotFoundError:
            pass
        with self.admission.slot() as decision:
            if decision == AdmissionDecision.SHED:
                # No previous build can exist (lookup just failed), so the
                # degraded path reduces to the overload error.
                raise ServerOverloadError(
                    f"cold build of {table.name}.{column} shed by "
                    "admission control"
                )
            try:
                stats = self.auto.manager.statistics(table.name, column)
            except StatisticsNotFoundError:
                stats = self._build(table, column, dict(self.build_params))
        return self.cache.install(stats)

    def _handle_estimate(self, op: str, fields: dict) -> dict:
        """Answer one estimate endpoint from the serving bundle."""
        table = self._table(fields["table"])
        column = fields["column"]
        entry = self._serving_entry(table, column)
        stats = entry.statistics
        if stats.degraded:
            with self._counts_lock:
                self.degraded_served += 1
            _metrics.inc("repro_serve_degraded_total")
            if self.telemetry is not None:
                self.telemetry.record_event("degraded")
        if op == "estimate_range":
            lo, hi = float(fields["lo"]), float(fields["hi"])
            rows = entry.index.estimate_range(lo, hi)
            scale = (
                table.num_rows / entry.index.total
                if entry.index.total else 0.0
            )
            scaled = rows * scale
            return self._estimate_result(stats, entry, rows=scaled)
        if op == "estimate_equality":
            return self._estimate_result(
                stats, entry, rows=stats.estimate_equality(float(fields["value"]))
            )
        if op == "estimate_quantile":
            return self._estimate_result(
                stats, entry, value=entry.index.estimate_quantile(float(fields["q"]))
            )
        if op == "estimate_distinct":
            return self._estimate_result(
                stats, entry, distinct=float(stats.distinct_estimate)
            )
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    @staticmethod
    def _estimate_result(
        stats: ColumnStatistics, entry: CacheEntry, **payload
    ) -> dict:
        """Common envelope for estimate responses."""
        payload.update(
            {
                "method": stats.method,
                "version": entry.version,
                "degraded": stats.degraded,
            }
        )
        return payload

    # -- Telemetry endpoints -------------------------------------------

    def _handle_stats(self) -> dict:
        """The ``stats`` endpoint: logical/wall-split telemetry snapshot.

        The ``logical`` half is interleaving-invariant — byte-identical
        across client counts for the same request multiset (the CI
        ``telemetry-smoke`` job diffs it, mirroring the loadgen summary
        contract); the ``wall`` half holds latency quantiles, per-window
        values, latency SLOs, and the shift verdict.
        """
        with self._counts_lock:
            requests = dict(sorted(self.request_counts.items()))
            degraded = self.degraded_served
            uptime = self.uptime_requests
        _metrics.set_gauge(
            "repro_serve_queue_depth", float(self.admission.queue_depth)
        )
        logical = {
            "uptime_requests": uptime,
            "requests": requests,
            "degraded_served": degraded,
            "cache": self.cache.counters(),
            "admission": self.admission.counters(),
            "queue_depth": self.admission.queue_depth,
            "catalog_columns": len(self.auto.manager.catalog),
            "telemetry": (
                self.telemetry.logical_summary()
                if self.telemetry is not None
                else {"enabled": False}
            ),
        }
        wall = (
            self.telemetry.wall_summary()
            if self.telemetry is not None
            else {}
        )
        return {"logical": logical, "wall": wall}

    def _handle_health(self) -> dict:
        """The ``health`` endpoint: ok until a declared SLO is burning."""
        burning = (
            self.telemetry.burning() if self.telemetry is not None else []
        )
        with self._counts_lock:
            uptime = self.uptime_requests
        return {
            "status": "degraded" if burning else "ok",
            "burning": burning,
            "uptime_requests": uptime,
            "tables": len(self.tables),
            "telemetry_enabled": self.telemetry is not None,
        }

    def _handle_watch(self, cursor: int = 0) -> dict:
        """The ``watch`` endpoint: windows since *cursor* + next cursor."""
        if cursor < 0:
            raise ProtocolError(f"cursor must be >= 0, got {cursor}")
        if self.telemetry is None:
            return {
                "enabled": False, "clock": 0, "cursor": 0,
                "totals": {}, "windows": {},
            }
        return self.telemetry.watch_delta(cursor)

    # -- Status --------------------------------------------------------

    def status(self) -> dict:
        """Deterministic server snapshot (no clocks, no memory addresses)."""
        with self._counts_lock:
            requests = dict(sorted(self.request_counts.items()))
            degraded = self.degraded_served
            uptime = self.uptime_requests
        return {
            "uptime_requests": uptime,
            "telemetry_enabled": self.telemetry is not None,
            "tables": sorted(self.tables),
            "columns": {
                name: sorted(table.column_names)
                for name, table in sorted(self.tables.items())
            },
            "catalog_columns": len(self.auto.manager.catalog),
            "cached_columns": len(self.cache),
            "cache": self.cache.counters(),
            "admission": self.admission.counters(),
            "requests": requests,
            "degraded_served": degraded,
            "seed": self.seed,
            "durable": self.store is not None,
        }

    def checkpoint(self) -> None:
        """Flush the durable store (no-op for in-memory catalogs)."""
        if self.store is not None:
            self.store.checkpoint()


# ----------------------------------------------------------------------
# TCP front end: one thread per connection
# ----------------------------------------------------------------------

#: Listen backlog of the TCP socket.
BACKLOG = 100

#: Seconds shutdown waits for each connection's thread to finish the
#: request it is answering.
DRAIN_TIMEOUT = 60.0

_NOT_JSON = {
    "ok": False, "op": None,
    "error": "request is not valid JSON", "code": "ProtocolError",
}
_TOO_LONG = {
    "ok": False, "op": None,
    "error": f"request line exceeds {LINE_LIMIT} bytes",
    "code": "ProtocolError",
}
_STOPPING = {"ok": True, "op": SHUTDOWN_OP, "result": {"stopping": True}}


def _encode(response: dict) -> bytes:
    """One byte-stable JSON line (sorted keys, no whitespace variance)."""
    return (
        json.dumps(response, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def _listen(host: str, port: int) -> socket.socket:
    """A listening socket on the first address *host* resolves to."""
    family, _, _, _, address = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )[0]
    # SO_REUSEADDR, and IPV6_V6ONLY for an IPv6 address.
    return socket.create_server(address, family=family, backlog=BACKLOG)


class _FrontEnd:
    """The accept loop and one thread per accepted connection.

    Each connection's thread reads a request line, calls
    :meth:`StatsServer.handle` itself and writes the answer, so a slow
    build blocks only its own connection.  The shutdown op sets
    :attr:`stopped`; :meth:`close` then drains the connections.
    """

    def __init__(self, server: StatsServer, host: str, port: int):
        """Bind, listen, and start the accept loop on its own thread."""
        self.server = server
        self.listener = _listen(host, port)
        self.listener.setblocking(False)
        self.stopped = threading.Event()
        self._wake, self._waker = socket.socketpair()
        self._lock = threading.Lock()
        self._threads: dict[socket.socket, threading.Thread] = {}
        self._accept = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept.start()

    def _accept_loop(self) -> None:
        """Accept connections until :meth:`close` wakes the loop."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.listener, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wake in ready:
                    return
                try:
                    conn, _ = self.listener.accept()
                except OSError:  # the client left before it was accepted
                    continue
                conn.setblocking(True)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name="repro-serve-conn", daemon=True,
                )
                with self._lock:
                    self._threads[conn] = thread
                thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer one client's request lines in order until it leaves."""
        try:
            with conn.makefile("rb") as reader:
                while not self.stopped.is_set():
                    line = reader.readline(LINE_LIMIT + 1)
                    if not line:
                        break
                    if len(line) > LINE_LIMIT and not line.endswith(b"\n"):
                        conn.sendall(_encode(_TOO_LONG))
                        break
                    response = self._answer(line)
                    conn.sendall(_encode(response))
                    if response is _STOPPING:
                        self.stopped.set()
                        break
        except OSError:  # the client vanished mid-request
            pass
        finally:
            with self._lock:
                del self._threads[conn]
            conn.close()

    def _answer(self, line: bytes) -> dict:
        """The response to one request line."""
        try:
            request = json.loads(line)
        except (ValueError, RecursionError):  # RecursionError: deep nesting
            return _NOT_JSON
        if isinstance(request, dict) and request.get("op") == SHUTDOWN_OP:
            return _STOPPING
        return self.server.handle(request)

    def close(self) -> None:
        """Stop accepting, end idle connections, await in-flight answers.

        ``shutdown(SHUT_RD)`` wakes a thread waiting for its next request
        line with end-of-file; a thread inside ``handle`` still writes its
        answer, then reads no further.
        """
        self._waker.send(b"\0")
        self._accept.join()
        self.listener.close()
        with self._lock:
            self.stopped.set()
            threads = list(self._threads.items())
            for conn, _ in threads:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already reset the connection
                    pass
        for _, thread in threads:
            thread.join(DRAIN_TIMEOUT)
        self._wake.close()
        self._waker.close()


def serve_forever(
    server: StatsServer,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_path: str | None = None,
) -> None:
    """Run the TCP front end until a client sends the shutdown op.

    ``port=0`` binds an ephemeral port; once the accept loop runs, the
    bound address is printed as ``SERVE_READY <host> <port>`` (and written
    to *ready_path*, atomically, when given) so scripts can discover it.
    On shutdown the server stops accepting, lets in-flight requests
    answer, closes idle connections, and checkpoints its store.
    """
    front = _FrontEnd(server, host, port)
    try:
        bound = front.listener.getsockname()
        announce = f"SERVE_READY {bound[0]} {bound[1]}"
        print(announce, flush=True)
        if ready_path is not None:
            atomic_write_text(ready_path, announce + "\n")
        front.stopped.wait()
    finally:
        front.close()
    server.checkpoint()
