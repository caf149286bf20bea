"""The statistics server: synchronous core + JSON-lines TCP front end.

:class:`StatsServer` is the transport-free core — ``handle(request)``
takes one protocol request (a dict) and returns one response (a dict).
In-process callers (the load generator, the benchmarks, tests) call
it directly from any number of threads.  The TCP front end
(:func:`serve_forever`) answers on one I/O thread, which reads request
lines from every connection, calls ``handle`` inline and writes the
answers.  At its first request that may run an ANALYZE, a connection
moves to a thread of its own for the rest of its life, so a slow build
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

    def _may_build(self, request: object) -> bool:
        """Whether answering *request* may run an ANALYZE.

        True for ``analyze``, and for an estimate on a served table whose
        column has no statistics yet or stale ones; a request this calls
        read-only may still fail validation in :meth:`handle`.  The TCP
        front end answers read-only requests on its I/O thread.
        """
        if not isinstance(request, dict):
            return False
        op, table, column = (
            request.get("op"), request.get("table"), request.get("column")
        )
        if op == "analyze":
            return True
        if not (isinstance(op, str) and op.startswith("estimate_")
                and isinstance(table, str) and isinstance(column, str)
                and table in self.tables):
            return False
        try:
            return self.auto.is_stale(table, column)
        except StatisticsNotFoundError:
            return True

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
        self._count_degraded()
        return {
            "summary": stats.summary(),
            "n": stats.n,
            "k": stats.histogram.k,
            "pages_read": 0,
            "version": self.auto.manager.catalog.version(table_name, column),
            "degraded": True,
            "admission": AdmissionDecision.SHED,
        }

    def _count_degraded(self) -> None:
        """Tally one degraded answer in the counters, metrics and telemetry."""
        with self._counts_lock:
            self.degraded_served += 1
        _metrics.inc("repro_serve_degraded_total")
        if self.telemetry is not None:
            self.telemetry.record_event("degraded")

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
            self._count_degraded()
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
# TCP front end: one I/O thread, and a thread per connection that builds
# ----------------------------------------------------------------------

#: Listen backlog of the TCP socket.
BACKLOG = 100

#: Seconds shutdown waits for each dedicated connection thread to finish
#: the request it is answering (the I/O thread has none in flight).
DRAIN_TIMEOUT = 60.0

#: Bytes asked of one ``recv``.
RECV_SIZE = 64 * 1024

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

#: Built once: ``json.dumps`` with these settings builds an encoder per call.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def _encode(response: dict) -> bytes:
    """One byte-stable JSON line (sorted keys, no whitespace variance).

    JSON has no NaN or infinity, so a response holding one is answered
    with a ``NonFiniteResult`` error envelope rather than invalid JSON.
    """
    try:
        text = _ENCODER.encode(response)
    except ValueError:
        return _encode({
            "ok": False, "op": response.get("op"),
            "error": "the result holds a NaN or infinity, which JSON "
                     "cannot carry",
            "code": "NonFiniteResult",
        })
    return (text + "\n").encode()


def _next_line(buffer: bytearray, eof: bool) -> bytes | None:
    """Cut the next request line off the front of *buffer*.

    Frames like ``readline(LINE_LIMIT + 1)``: a line ends after its
    newline, after ``LINE_LIMIT + 1`` bytes without one (too long to
    answer), or, at end of file, with the fragment left over.  ``None``
    means the line is not complete yet.
    """
    end = buffer.find(b"\n", 0, LINE_LIMIT + 1) + 1
    if not end:
        if len(buffer) > LINE_LIMIT:
            end = LINE_LIMIT + 1
        elif eof and buffer:
            end = len(buffer)
        else:
            return None
    line = bytes(buffer[:end])
    del buffer[:end]
    return line


def _parse(line: bytes) -> tuple[object, dict | None]:
    """``(request, None)``, or ``(None, envelope)`` for a line that the
    transport answers itself: too long, not JSON, or ``shutdown``."""
    if len(line) > LINE_LIMIT and not line.endswith(b"\n"):
        return None, _TOO_LONG
    try:
        request = json.loads(line)
    except (ValueError, RecursionError):  # RecursionError: deep nesting
        return None, _NOT_JSON
    if isinstance(request, dict) and request.get("op") == SHUTDOWN_OP:
        return None, _STOPPING
    return request, None


def _listen(host: str, port: int) -> socket.socket:
    """A listening socket on the first address *host* resolves to."""
    family, _, _, _, address = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )[0]
    # SO_REUSEADDR, and IPV6_V6ONLY for an IPv6 address.
    return socket.create_server(address, family=family, backlog=BACKLOG)


class _Connection:
    """A connection the I/O thread serves: its socket and its two buffers."""

    __slots__ = ("sock", "unread", "unsent", "eof", "closing", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.unread = bytearray()
        self.unsent = b""
        self.eof = False
        self.closing = False
        self.events = selectors.EVENT_READ


class _FrontEnd:
    """One I/O thread for every connection, until it asks for a build.

    The I/O thread accepts, reads, frames and answers: it calls
    :meth:`StatsServer.handle` inline, so a read-only request wakes no
    other thread.  A connection whose next request may run an ANALYZE
    (:meth:`StatsServer._may_build`) leaves the selector, and a thread of
    its own answers that request and every later one, so a slow build
    blocks only its own connection.  The shutdown op sets
    :attr:`stopped`; :meth:`close` then drains the connections.
    """

    def __init__(self, server: StatsServer, host: str, port: int):
        """Bind, listen, and start the I/O thread."""
        self.server = server
        self.listener = _listen(host, port)
        self.listener.setblocking(False)
        self.stopped = threading.Event()
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._lock = threading.Lock()
        self._threads: dict[socket.socket, threading.Thread] = {}
        self._io = threading.Thread(
            target=self._io_loop, name="repro-serve-io", daemon=True
        )
        self._io.start()

    # -- The I/O thread ------------------------------------------------

    def _io_loop(self) -> None:
        """Serve the selector's connections until :attr:`stopped` is set,
        then close them and the listener (and stop the server, should the
        loop itself fail)."""
        selector = self._selector
        try:
            while not self.stopped.is_set():
                for key, events in selector.select():
                    if key.data is not None:
                        self._service(key.data, events)
                    elif key.fileobj is self.listener:
                        self._accept()
                    if self.stopped.is_set():
                        break
        finally:
            self.stopped.set()
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    key.fileobj.close()
            selector.close()
            self.listener.close()

    def _accept(self) -> None:
        """Register every connection waiting in the backlog."""
        while True:
            try:
                sock, _ = self.listener.accept()
            except BlockingIOError:
                return
            except OSError:  # the client left before it was accepted
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(
                sock, selectors.EVENT_READ, _Connection(sock)
            )

    def _service(self, conn: _Connection, events: int) -> None:
        """Move *conn*'s bytes, then answer what they complete."""
        try:
            if events & selectors.EVENT_READ:
                data = conn.sock.recv(RECV_SIZE)
                conn.unread += data
                conn.eof = not data
            else:
                self._send(conn)
            self._pump(conn)
        except OSError:  # the client vanished
            self._drop(conn)
        except Exception as exc:  # a fault ends only this connection
            threading.excepthook(threading.ExceptHookArgs(
                [type(exc), exc, exc.__traceback__, threading.current_thread()]
            ))
            self._drop(conn)

    def _pump(self, conn: _Connection) -> None:
        """Answer *conn*'s complete lines in order, one unsent answer at
        most, then wait for what it needs next: to write, to read, or
        nothing (closed, or handed to a thread of its own)."""
        while not (conn.unsent or conn.closing):
            line = _next_line(conn.unread, conn.eof)
            if line is None:
                break
            request, response = _parse(line)
            if response is None:
                if self.server._may_build(request):
                    self._dedicate(conn, request)
                    return
                response = self.server.handle(request)
            conn.closing = response is _TOO_LONG or response is _STOPPING
            conn.unsent = _encode(response)
            self._send(conn)
            if response is _STOPPING:
                self.stopped.set()
        if not conn.unsent and (conn.closing or conn.eof):
            self._drop(conn)
            return
        events = selectors.EVENT_WRITE if conn.unsent else selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    @staticmethod
    def _send(conn: _Connection) -> None:
        """Write as much of *conn*'s unsent answer as the socket takes."""
        try:
            sent = conn.sock.send(conn.unsent)
        except BlockingIOError:
            return
        conn.unsent = conn.unsent[sent:]

    def _drop(self, conn: _Connection) -> None:
        """Close a connection the I/O thread serves."""
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _dedicate(self, conn: _Connection, request: object) -> None:
        """Hand *conn*, its unread bytes and *request* to a new thread."""
        self._selector.unregister(conn.sock)
        thread = threading.Thread(
            target=self._serve_dedicated,
            args=(conn.sock, conn.unread, request),
            name="repro-serve-conn", daemon=True,
        )
        with self._lock:
            self._threads[conn.sock] = thread
        thread.start()

    # -- Dedicated connection threads ------------------------------------

    def _serve_dedicated(
        self, sock: socket.socket, unread: bytearray, request: object
    ) -> None:
        """Answer *request*, then the connection's later lines, blocking,
        until it leaves or the front end stops."""
        try:
            sock.setblocking(True)
            sock.sendall(_encode(self.server.handle(request)))
            eof = False
            while not self.stopped.is_set():
                line = _next_line(unread, eof)
                if line is None:
                    if eof:
                        break
                    data = sock.recv(RECV_SIZE)
                    unread += data
                    eof = not data
                    continue
                request, response = _parse(line)
                if response is None:
                    response = self.server.handle(request)
                sock.sendall(_encode(response))
                if response is _STOPPING:
                    self.stopped.set()
                if response is _TOO_LONG or response is _STOPPING:
                    break
        except OSError:  # the client vanished mid-request
            pass
        finally:
            with self._lock:
                del self._threads[sock]
            sock.close()

    def close(self) -> None:
        """Stop accepting, end idle connections, await in-flight answers.

        The I/O thread stops first: it closes the listener and every
        connection it serves, none of which has a request in flight.
        Then ``shutdown(SHUT_RD)`` wakes a dedicated thread waiting for
        its next request line with end-of-file; one inside ``handle``
        still writes its answer, then reads no further.
        """
        self.stopped.set()
        self._waker.send(b"\0")
        self._io.join()
        with self._lock:
            threads = list(self._threads.items())
            for sock, _ in threads:
                try:
                    sock.shutdown(socket.SHUT_RD)
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

    ``port=0`` binds an ephemeral port; once the I/O thread runs, the
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
