"""StatsServer: endpoint behaviour, determinism, degraded mode, TCP loop."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.durability import CatalogStore
from repro.engine import Table
from repro.engine.maintenance import RefreshPolicy
from repro.serve import AdmissionController, StatsServer, serve_forever
from repro.serve import server as server_module
from repro.serve.protocol import SHUTDOWN_OP
from repro.serve.server import LINE_LIMIT


ROWS = 20_000

#: Well-typed ``analyze`` params beyond the table's rows; unchecked, the
#: larger ones would ask numpy for an impossible allocation.
OVERSIZED_PARAMS = [
    {"k": ROWS + 1},
    {"k": 10**30},
    {"method": "record", "record_sample_size": ROWS + 1},
    {"method": "record", "record_sample_size": 10**30},
]


def _server(**kwargs):
    kwargs.setdefault(
        "policy", RefreshPolicy(fraction=0.2, floor_rows=100)
    )
    kwargs.setdefault("build_params", {"k": 8, "f": 0.3})
    return StatsServer(
        {"t": Table("t", {"x": np.arange(ROWS)})}, **kwargs
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

    def test_modify_unknown_names_get_error_envelopes(self):
        server = _server()
        table = server.handle(
            {"op": "modify", "table": "nope", "column": "x", "rows": 1}
        )
        assert not table["ok"]
        assert table["code"] == "StatisticsNotFoundError"
        column = server.handle(
            {"op": "modify", "table": "t", "column": "nope", "rows": 1}
        )
        assert not column["ok"]
        assert column["code"] == "CatalogError"
        assert server.auto.modifications.since_refresh("t", "nope") == 0

    @pytest.mark.parametrize(
        "params",
        [{"bogus": 1}, {"k": "abc"}, {"f": "x"}, {"rng": 5}, {"k": 2.5}]
        + OVERSIZED_PARAMS,
    )
    def test_bad_analyze_params_get_protocol_error(self, params):
        response = _server().handle(
            {"op": "analyze", "table": "t", "column": "x", "params": params}
        )
        assert not response["ok"]
        assert response["code"] == "ProtocolError"

    def test_params_up_to_the_row_count_build(self):
        built = _ok(_server().handle(
            {"op": "analyze", "table": "t", "column": "x",
             "params": {"k": ROWS}}
        ))
        assert built["n"] == ROWS
        small = StatsServer({"s": Table("s", {"x": np.arange(30)})})
        built = _ok(small.handle({"op": "analyze", "table": "s", "column": "x"}))
        assert built["n"] == 30  # fewer rows than the default k still builds

    def test_record_build_of_empty_sample_is_an_error_envelope(self):
        response = _server().handle(
            {"op": "analyze", "table": "t", "column": "x",
             "params": {"method": "record", "record_sample_size": 0}}
        )
        assert not response["ok"]
        assert response["code"] == "BuildAbortedError"

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


class TestLazyBuildRng:
    def test_only_a_rebuild_constructs_a_generator(self, monkeypatch):
        server = _server()
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        made = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        read = {"op": "estimate_range", "table": "t", "column": "x",
                "lo": 0.0, "hi": 100.0}
        for _ in range(100):
            assert _ok(server.handle(read))["version"] == 1
        assert made == []
        # 5000 of 20000 rows is past the 20% staleness threshold.
        _ok(server.handle(
            {"op": "modify", "table": "t", "column": "x", "rows": 5_000}
        ))
        assert _ok(server.handle(read))["version"] == 2
        assert len(made) == 1


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


def _serve_in_thread(server, tmp_path, monkeypatch, hold=None,
                     host="127.0.0.1"):
    """Run ``serve_forever`` in a thread; ``(thread, host, port)`` once it
    has announced itself.

    The ready-file write sets an event rather than being polled for; with
    *hold*, that write then waits for *hold* to be set.
    """
    announced = threading.Event()
    written = []
    write = server_module.atomic_write_text

    def announcing(path, text):
        written.append(text)
        announced.set()
        if hold is not None:
            hold.wait(30.0)
        write(path, text)

    monkeypatch.setattr(server_module, "atomic_write_text", announcing)
    thread = threading.Thread(
        target=serve_forever,
        kwargs={"server": server, "host": host,
                "ready_path": str(tmp_path / "ready")},
        daemon=True,
    )
    thread.start()
    assert announced.wait(10.0)
    _, host, port = written[0].split()
    return thread, host, int(port)


def _connect(host, port):
    """A client connection and its binary stream."""
    sock = socket.create_connection((host, port), timeout=10.0)
    return sock, sock.makefile("rwb")


def _send(stream, payload):
    stream.write((json.dumps(payload) + "\n").encode())
    stream.flush()


def _roundtrip(stream, payload):
    _send(stream, payload)
    return json.loads(stream.readline())


def _shutdown(host, port):
    sock, stream = _connect(host, port)
    with sock:
        assert _ok(_roundtrip(stream, {"op": SHUTDOWN_OP})) == {
            "stopping": True
        }


class TestTcpFrontEnd:
    def test_json_lines_round_trip_and_shutdown(self, tmp_path, monkeypatch):
        thread, host, port = _serve_in_thread(
            _server(seed=5), tmp_path, monkeypatch
        )

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

    def test_oversized_line_gets_envelope_and_close(self, tmp_path, monkeypatch):
        thread, host, port = _serve_in_thread(
            _server(seed=5), tmp_path, monkeypatch
        )
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

    def test_rejected_params_keep_the_connection(self, tmp_path, monkeypatch):
        thread, host, port = _serve_in_thread(
            _server(seed=5), tmp_path, monkeypatch
        )
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            for params in [
                {"bogus": 1}, {"k": "abc"}, {"rng": 5}, *OVERSIZED_PARAMS,
            ]:
                rejected = _roundtrip(stream, {
                    "op": "analyze", "table": "t", "column": "x",
                    "params": params,
                })
                assert rejected["code"] == "ProtocolError"
                assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
            stream.write(b"[" * 50_000 + b"\n")  # nested past the recursion limit
            stream.flush()
            deep = json.loads(stream.readline())
            assert deep["error"] == "request is not valid JSON"
            assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
            _roundtrip(stream, {"op": SHUTDOWN_OP})
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_accepted_sockets_disable_nagle(self, tmp_path, monkeypatch):
        accepted = []
        accept = socket.socket.accept

        def recording(self):
            conn, address = accept(self)
            accepted.append(conn)
            return conn, address

        monkeypatch.setattr(socket.socket, "accept", recording)
        thread, host, port = _serve_in_thread(
            _server(seed=5), tmp_path, monkeypatch
        )
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
            [conn] = accepted
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            _roundtrip(stream, {"op": SHUTDOWN_OP})
        thread.join(timeout=10.0)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# One thread per connection: behaviour under held builds and shutdown.
# Every wait below is on a threading.Event or a socket read, never a sleep.
# ----------------------------------------------------------------------


def _hold_builds(server):
    """Make each build on *server* wait at its ``AutoStatistics.analyze`` call.

    Returns ``(entered, release)``: *entered* is set once a build is held;
    setting *release* lets every held build run.
    """
    entered, release = threading.Event(), threading.Event()
    analyze = server.auto.analyze

    def held(*args, **kwargs):
        entered.set()
        release.wait(30.0)
        return analyze(*args, **kwargs)

    server.auto.analyze = held
    return entered, release


class TestConnectionThreads:
    def test_held_build_blocks_only_its_own_connection(
        self, tmp_path, monkeypatch
    ):
        server = _server(seed=5)
        server.add_table(Table("u", {"y": np.arange(5_000)}))
        _ok(server.handle({"op": "analyze", "table": "t", "column": "x"}))
        entered, release = _hold_builds(server)
        thread, host, port = _serve_in_thread(server, tmp_path, monkeypatch)
        building_sock, building = _connect(host, port)
        other_sock, other = _connect(host, port)
        with building_sock, other_sock:
            _send(building, {"op": "analyze", "table": "u", "column": "y"})
            assert entered.wait(10.0)
            assert _ok(_roundtrip(other, {"op": "ping"})) == {"pong": True}
            hit = _ok(_roundtrip(other, {
                "op": "estimate_range", "table": "t", "column": "x",
                "lo": 0.0, "hi": 9_999.0,
            }))
            assert hit["version"] == 1
            assert not release.is_set()
            release.set()
            assert _ok(json.loads(building.readline()))["version"] == 1
        _shutdown(host, port)
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_clients_are_answered_while_the_ready_file_is_written(
        self, tmp_path, monkeypatch, capsys
    ):
        hold = threading.Event()
        thread, _, _ = _serve_in_thread(
            _server(), tmp_path, monkeypatch, hold=hold
        )
        printed = capsys.readouterr().out.split()
        assert printed[0] == "SERVE_READY"
        host, port = printed[1], int(printed[2])
        sock, stream = _connect(host, port)
        with sock:
            assert _ok(_roundtrip(stream, {"op": "ping"})) == {"pong": True}
        assert not (tmp_path / "ready").exists()
        hold.set()
        _shutdown(host, port)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert (tmp_path / "ready").read_text().split() == printed

    def test_shutdown_answers_in_flight_build_and_closes_idle(
        self, tmp_path, monkeypatch
    ):
        store = str(tmp_path / "store")
        server = _server(seed=5, store=store)
        entered, release = _hold_builds(server)
        versions_at_checkpoint = []
        checkpoint = server.checkpoint

        def recording_checkpoint():
            versions_at_checkpoint.append(
                server.auto.manager.catalog.version("t", "x")
            )
            checkpoint()

        server.checkpoint = recording_checkpoint
        thread, host, port = _serve_in_thread(server, tmp_path, monkeypatch)
        idle_sock, idle = _connect(host, port)
        busy_sock, busy = _connect(host, port)
        with idle_sock, busy_sock:
            assert _ok(_roundtrip(idle, {"op": "ping"})) == {"pong": True}
            _send(busy, {"op": "analyze", "table": "t", "column": "x"})
            assert entered.wait(10.0)
            _shutdown(host, port)
            # The idle connection closes while the build is still held.
            assert idle.readline() == b""
            assert thread.is_alive()
            release.set()
            assert _ok(json.loads(busy.readline()))["version"] == 1
            assert busy.readline() == b""
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert versions_at_checkpoint == [1]  # checkpointed after the build

        reopened = _server(seed=5, store=CatalogStore(store))
        served = _ok(reopened.handle({
            "op": "estimate_range", "table": "t", "column": "x",
            "lo": 0.0, "hi": 9_999.0,
        }))
        assert served["version"] == 1
        assert reopened.admission.counters()["admitted"] == 0

    def test_ipv6_literal_binds(self, tmp_path, monkeypatch):
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("no IPv6 loopback")
        thread, host, port = _serve_in_thread(
            _server(), tmp_path, monkeypatch, host="::1"
        )
        assert host == "::1"
        _shutdown(host, port)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
