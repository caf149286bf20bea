"""StatsServer: endpoint behaviour, determinism, degraded mode, TCP loop."""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.engine import Table
from repro.engine.maintenance import RefreshPolicy
from repro.serve import AdmissionController, StatsServer, serve_forever
from repro.serve.protocol import SHUTDOWN_OP
from repro.serve.server import LINE_LIMIT


def _server(**kwargs):
    kwargs.setdefault(
        "policy", RefreshPolicy(fraction=0.2, floor_rows=100)
    )
    kwargs.setdefault("build_params", {"k": 8, "f": 0.3})
    return StatsServer(
        {"t": Table("t", {"x": np.arange(20_000)})}, **kwargs
    )


def _ok(response):
    assert response["ok"], response
    return response["result"]


class TestEndpoints:
    def test_ping(self):
        assert _ok(_server().handle({"op": "ping"})) == {"pong": True}

    def test_analyze_then_estimates(self):
        server = _server()
        built = _ok(server.handle(
            {"op": "analyze", "table": "t", "column": "x"}
        ))
        assert built["k"] == 8
        assert built["version"] == 1
        assert built["admission"] == "admitted"
        assert not built["degraded"]

        rng = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        assert rng["rows"] == pytest.approx(10_000, rel=0.2)
        eq = _ok(server.handle(
            {"op": "estimate_equality", "table": "t", "column": "x",
             "value": 5.0}
        ))
        assert eq["rows"] >= 0
        quant = _ok(server.handle(
            {"op": "estimate_quantile", "table": "t", "column": "x",
             "q": 0.5}
        ))
        assert quant["value"] == pytest.approx(10_000, rel=0.2)
        distinct = _ok(server.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))
        assert distinct["distinct"] > 0

    def test_estimate_cold_builds_on_demand(self):
        server = _server()
        result = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 100.0}
        ))
        assert result["version"] == 1
        assert server.cache.counters()["misses"] == 1

    def test_modify_arms_staleness(self):
        server = _server()
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        _ok(server.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        result = _ok(server.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 100.0}
        ))
        assert result["version"] == 2  # the touch triggered the refresh
        assert server.cache.counters()["refreshes"] == 1

    def test_status_counts_requests(self):
        server = _server()
        server.handle({"op": "ping"})
        server.handle({"op": "bogus"})  # rejected before counting
        status = _ok(server.handle({"op": "status"}))
        assert status["requests"] == {"ping": 1, "status": 1}
        assert status["tables"] == ["t"]
        assert status["columns"] == {"t": ["x"]}
        assert status["durable"] is False

    def test_error_envelope(self):
        response = _server().handle(
            {"op": "estimate_distinct", "table": "nope", "column": "x"}
        )
        assert not response["ok"]
        assert response["code"] == "StatisticsNotFoundError"
        bad = _server().handle({"op": "bogus"})
        assert not bad["ok"]
        assert bad["code"] == "ProtocolError"


class TestDeterminism:
    def test_same_seed_builds_identical_statistics(self):
        responses = []
        for _ in range(2):
            server = _server(seed=7)
            responses.append(_ok(server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            )))
        assert responses[0] == responses[1]

    def test_build_rng_depends_on_build_number_not_arrival(self):
        server_a = _server(seed=7)
        _ok(server_a.handle({"op": "analyze", "table": "t", "column": "x"}))
        _ok(server_a.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        second_a = _ok(server_a.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))

        server_b = _server(seed=7)
        _ok(server_b.handle({"op": "analyze", "table": "t", "column": "x"}))
        # Interleave unrelated requests: the second build must not care.
        for _ in range(5):
            _ok(server_b.handle({"op": "ping"}))
        _ok(server_b.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        second_b = _ok(server_b.handle(
            {"op": "estimate_distinct", "table": "t", "column": "x"}
        ))
        assert second_a == second_b


class TestDegradedMode:
    def test_shed_analyze_serves_last_known_good(self):
        server = _server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        server.admission.try_acquire()  # hold the only build slot
        try:
            result = _ok(server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            ))
        finally:
            server.admission.release()
        assert result["admission"] == "shed"
        assert result["degraded"] is True
        assert result["pages_read"] == 0
        assert server.degraded_served == 1

    def test_shed_cold_build_is_overload(self):
        server = _server(
            admission=AdmissionController(max_inflight=1, max_queue=0)
        )
        server.admission.try_acquire()
        try:
            response = server.handle(
                {"op": "analyze", "table": "t", "column": "x"}
            )
        finally:
            server.admission.release()
        assert not response["ok"]
        assert response["code"] == "ServerOverloadError"


class TestWarmStart:
    def test_store_round_trip_serves_without_rebuild(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = _server(store=store_dir, seed=3)
        _ok(first.handle({"op": "analyze", "table": "t", "column": "x"}))
        want = _ok(first.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        first.checkpoint()

        warm = _server(store=store_dir, seed=3)
        got = _ok(warm.handle(
            {"op": "estimate_range", "table": "t", "column": "x",
             "lo": 0.0, "hi": 9_999.0}
        ))
        assert got == want
        assert warm.admission.counters()["admitted"] == 0  # no rebuild
        assert _ok(warm.handle({"op": "status"}))["durable"] is True


def _serve_in_thread(tmp_path):
    """Start the TCP front end on an ephemeral port; (thread, host, port)."""
    ready = tmp_path / "ready"
    thread = threading.Thread(
        target=serve_forever,
        kwargs={"server": _server(seed=5), "ready_path": str(ready)},
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while not ready.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    token = ready.read_text().split()
    assert token[0] == "SERVE_READY"
    return thread, token[1], int(token[2])


def _roundtrip(stream, payload):
    stream.write((json.dumps(payload) + "\n").encode())
    stream.flush()
    return json.loads(stream.readline())


class TestTcpFrontEnd:
    def test_json_lines_round_trip_and_shutdown(self, tmp_path):
        thread, host, port = _serve_in_thread(tmp_path)

        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
            built = _ok(_roundtrip(
                stream, {"op": "analyze", "table": "t", "column": "x"}
            ))
            assert built["version"] == 1
            stream.write(b"this is not json\n")
            stream.flush()
            garbage = json.loads(stream.readline())
            assert not garbage["ok"]
            assert garbage["code"] == "ProtocolError"
            bye = _roundtrip(stream, {"op": SHUTDOWN_OP})
            assert _ok(bye) == {"stopping": True}
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_oversized_line_gets_envelope_and_close(self, tmp_path):
        thread, host, port = _serve_in_thread(tmp_path)
        request = {
            "op": "estimate_range", "table": "t" * (LINE_LIMIT + 4_000),
            "column": "x", "lo": 0.0, "hi": 1.0,
        }
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            envelope = _roundtrip(stream, request)
            assert envelope["ok"] is False
            assert envelope["code"] == "ProtocolError"
            assert str(LINE_LIMIT) in envelope["error"]
            try:
                rest = stream.readline()
            except ConnectionResetError:  # close raced unread request bytes
                rest = b""
            assert rest == b""
        # Only that connection closed: the server still answers others.
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
            _roundtrip(stream, {"op": SHUTDOWN_OP})
        thread.join(timeout=10.0)
        assert not thread.is_alive()
