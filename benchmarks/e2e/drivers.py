"""The four end-to-end workloads, driven only through public surfaces.

``serve_hot``, ``serve_churn`` and ``analyze_cold`` start ``repro serve`` in
a child process and talk to it over its JSON-lines TCP protocol with the
small closed-loop client below (deliberately not ``repro.serve.loadgen``, so
a change to the program's load generator cannot move the measurement).
``figure_sweep`` runs ``repro figure`` through ``repro.cli.main`` in a child
process (``child.py sweep``).

Every workload is a closed loop: a connection sends its next request only
after the previous answer arrived, as an optimizer's compile thread does.
At most two connections load the server, all from this process.  A run
warms up for ``warmup`` seconds (one pass for the figure sweep), then
measures for ``seconds`` of wall time.  The request stream of each
connection is a pure function of the seed, so its first requests (the
checksum prefix) get identical answers in every run at that seed.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from child import vm_hwm_mb  # noqa: E402

#: Tables of the two serve workloads, in ``--table`` order (``t0``..``t3``).
SERVE_TABLES = ("zipf2", "unif_dup", "zipf0", "normal")
#: Tables of ``analyze_cold`` (``t0``..``t7``).
COLD_TABLES = (
    "zipf0", "zipf2", "zipf4", "unif_dup",
    "normal", "self_similar", "bimodal", "all_distinct",
)
#: Estimate mix of one optimizer compile (the load generator's default).
MIX = (
    ("estimate_range", 0.70),
    ("estimate_equality", 0.15),
    ("estimate_quantile", 0.10),
    ("estimate_distinct", 0.05),
)
#: ``analyze_cold`` build parameters: layout changes intra-page correlation.
COLD_PARAMS = tuple(
    (layout, k) for layout in ("random", "partial", "sorted") for k in (64, 200)
)
#: Every 10th request on a ``serve_churn`` column reports this many modified
#: rows: 5 of them cross the 20% staleness threshold of a 1M-row column, so
#: about one read in 45 triggers an inline rebuild.
CHURN_EVERY = 10
CHURN_FRACTION = 0.04
#: Range probes after each ``analyze_cold`` build (they feed the error; 16
#: left its mean with a ~4% quartile spread across seeds, 32 halves the
#: sampling variance).
PROBES_PER_BUILD = 32
FIGURE_TRIALS = 9
#: Seed of the served tables (``repro serve --seed``) and of figure 6.  The
#: cost of a CVB build, and the length of figure 6's grid scan, depend on
#: the data (builds vary 12-32% and figure 6 samples 50k-131k pages across
#: seeds 0-7), so they are fixed: runs at different ``--seed`` then do the
#: same amount of work, and ``--seed`` varies what does not change it —
#: request values and endpoint mix, range probes, and the data of figures
#: 5 and 9.
FIXED_SEED = 0
#: Where runs leave logs, span files and results (listed in .gitignore).
OUT_DIR = ROOT / ".bench_out" / "e2e"


class BenchError(RuntimeError):
    """The benchmark could not drive the program."""


@dataclass
class Settings:
    """One run's inputs; the defaults are the benchmark's."""

    seed: int = 0
    seconds: float = 15.0
    warmup: float = 1.0
    rows: int = 1_000_000
    setups: int = 3
    prefix: int = 400
    trials: int = FIGURE_TRIALS
    spans: str | None = None
    out_dir: pathlib.Path = OUT_DIR


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float]
    op_latency_s: list[float]
    elapsed_s: float
    peak_rss_mb: float
    window: tuple[int, int]
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    answer_err: list[float] = field(default_factory=list)
    checksum: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    rtt_s: list[float] = field(default_factory=list)
    server: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed request or check."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ----------------------------------------------------------------------
# Percentiles and columns
# ----------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile (``0 < p <= 1``) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of *count*."""
    return count - max(1, math.ceil(p * count))


def tail(values, p: float) -> dict:
    """The p-th percentile with its sample count, or None when fewer than
    ten samples lie beyond it."""
    if beyond(len(values), p) < 10:
        return {"value": None, "n": len(values), "beyond": beyond(len(values), p)}
    return {
        "value": percentile(values, p), "n": len(values),
        "beyond": beyond(len(values), p),
    }


def columns(names, rows: int) -> list[np.ndarray]:
    """Sorted copies of the columns ``repro serve --table`` generates.

    ``repro serve --seed S`` draws table ``i`` from ``make_dataset(name,
    rows, rng=default_rng([S, i]))``; regenerating them here gives the
    exact answers the served estimates are checked against.
    """
    from repro.workloads import make_dataset

    return [
        np.sort(make_dataset(name, rows, rng=np.random.default_rng([FIXED_SEED, i])).values.astype(float))
        for i, name in enumerate(names)
    ]


# ----------------------------------------------------------------------
# The server child and the client
# ----------------------------------------------------------------------


def child_env() -> dict:
    """Environment of a child: the checkout's ``src`` on the import path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_line(stream, timeout: float) -> str:
    """One line from a child's pipe, or :class:`BenchError` after *timeout*."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from the child within {timeout:.0f} s")
    return stream.readline().decode()


def stop(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """Wait for a child to end; kill it if it does not."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


class Connection:
    """One blocking JSON-lines TCP connection."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def send(self, line: bytes) -> bytes:
        """Write one request line; return the answer line."""
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        if not reply:
            raise BenchError("server closed the connection")
        return reply

    def request(self, payload: dict) -> dict:
        """One decoded round trip."""
        return json.loads(self.send(json.dumps(payload).encode() + b"\n"))

    def close(self) -> None:
        """Close the connection."""
        self.file.close()
        self.sock.close()


class Server:
    """``repro serve`` in a child process, on an ephemeral port."""

    def __init__(self, tables, settings: Settings, spans: str | None = None):
        args = ["serve", "--seed", str(FIXED_SEED), "--port", "0"]
        for i, name in enumerate(tables):
            args += ["--table", f"t{i}={name}:{settings.rows}"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "child.py"), "--spans", spans, *args]
        settings.out_dir.mkdir(parents=True, exist_ok=True)
        with open(settings.out_dir / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                env=child_env(), cwd=ROOT,
            )
        try:
            line = read_line(self.proc.stdout, 120)
            if not line.startswith("SERVE_READY"):
                raise BenchError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.proc.kill()
            stop(self.proc)
            raise
        _, host, port = line.split()
        self.address = (host, int(port))

    def connect(self) -> Connection:
        """A new client connection."""
        return Connection(self.address)

    def close(self) -> None:
        """Shut the server down over the wire and wait for it."""
        try:
            conn = self.connect()
            conn.request({"op": "shutdown"})
            conn.close()
        except (OSError, BenchError):
            self.proc.kill()
        stop(self.proc)


def start_server(tables, settings: Settings, warm: bool) -> tuple[Server, list[float]]:
    """Start the server ``settings.setups`` times; keep the last one.

    Set-up is spawn -> ready, plus the warm ANALYZE of every column when
    *warm*; the traced run starts once, with its span file.
    """
    times = []
    count = 1 if settings.spans else settings.setups
    for attempt in range(count):
        began = time.perf_counter()
        server = Server(tables, settings, settings.spans)
        try:
            conn = server.connect()
            for i in range(len(tables) if warm else 0):
                reply = conn.request({"op": "analyze", "table": f"t{i}", "column": "value"})
                if not reply.get("ok"):
                    raise BenchError(f"warm ANALYZE of t{i} failed: {reply}")
            if not conn.request({"op": "ping"}).get("ok"):
                raise BenchError("ping failed")
            conn.close()
        except BaseException:
            server.close()
            raise
        times.append(time.perf_counter() - began)
        if attempt < count - 1:
            server.close()
    return server, times


# ----------------------------------------------------------------------
# Request streams (pure functions of the seed)
# ----------------------------------------------------------------------


def _read_line(op: str, table: int, domain, u1: float, u2: float):
    """One estimate request: ``(meta, line)``."""
    lo_d, hi_d = domain
    head = f'{{"op":"{op}","table":"t{table}","column":"value"'
    meta = [op, table, None, None]
    if op == "estimate_range":
        lo = lo_d + min(u1, u2) * (hi_d - lo_d)
        hi = lo_d + max(u1, u2) * (hi_d - lo_d)
        meta[2:] = [lo, hi]
        head += f',"lo":{lo!r},"hi":{hi!r}'
    elif op == "estimate_equality":
        head += f',"value":{lo_d + u1 * (hi_d - lo_d)!r}'
    elif op == "estimate_quantile":
        head += f',"q":{u1!r}'
    return meta, (head + "}\n").encode()


def _blocks(rng: np.random.Generator, size: int = 4096):
    """Endless uniform draws: ``(op index, pick, u1, u2)`` per request."""
    weights = np.array([w for _, w in MIX])
    while True:
        ops = rng.choice(len(MIX), size=size, p=weights / weights.sum())
        picks = rng.integers(0, 1 << 30, size=size)
        us = rng.random((size, 2))
        yield from zip(ops.tolist(), picks.tolist(), us[:, 0].tolist(), us[:, 1].tolist())


def hot_stream(seed: int, conn: int, domains):
    """``serve_hot``: the mix over every column."""
    for op, pick, u1, u2 in _blocks(np.random.default_rng([seed, 1, conn])):
        yield _read_line(MIX[op][0], pick % len(domains), domains[pick % len(domains)], u1, u2)


def churn_stream(seed: int, conn: int, domains, rows: int):
    """``serve_churn``: the mix over the two columns connection *conn* owns,
    taken in turn.

    Every ``CHURN_EVERY``-th request on a column is a ``modify``; because a
    column belongs to one connection, its request order is fixed.
    """
    owned = (2 * conn, 2 * conn + 1)
    counts = {table: 0 for table in owned}
    modify_rows = int(CHURN_FRACTION * rows)
    blocks = _blocks(np.random.default_rng([seed, 2, conn]))
    for position, (op, _, u1, u2) in enumerate(blocks):
        table = owned[position % 2]
        counts[table] += 1
        if counts[table] % CHURN_EVERY == 0:
            yield (["modify", table, None, None], (
                f'{{"op":"modify","table":"t{table}","column":"value",'
                f'"rows":{modify_rows}}}\n'
            ).encode())
        else:
            yield _read_line(MIX[op][0], table, domains[table], u1, u2)


def cold_stream(seed: int, domains, probes: int = PROBES_PER_BUILD):
    """``analyze_cold``: rounds over every (table, layout, k), each build
    followed by *probes* seeded range requests on the same column.

    The build order is fixed: it decides which build draws which RNG
    version, and so the histograms and the peak memory of the run.
    """
    rng = np.random.default_rng([seed, 3])
    tables = len(domains)
    while True:
        for index in range(tables * len(COLD_PARAMS)):
            table = index % tables
            layout, k = COLD_PARAMS[index // tables]
            yield (["analyze", table, layout, k], (
                f'{{"op":"analyze","table":"t{table}","column":"value",'
                f'"params":{{"layout":"{layout}","k":{k}}}}}\n'
            ).encode())
            for u1, u2 in rng.random((probes, 2)).tolist():
                meta, line = _read_line("estimate_range", table, domains[table], u1, u2)
                meta[0] = "probe"
                yield meta, line


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


def closed_loop(server: Server, streams, seconds: float):
    """Drive one connection per stream until *seconds* have passed.

    Returns ``(records, elapsed, window)``: per connection, the list of
    ``(meta, latency_s, reply_line)`` in send order.
    """
    records = [[] for _ in streams]
    failures = []
    barrier = threading.Barrier(len(streams) + 1)
    conns = [server.connect() for _ in streams]

    def drive(i):
        out = records[i]
        send = conns[i].send
        clock = time.perf_counter
        try:
            barrier.wait()
            deadline = clock() + seconds
            for meta, line in streams[i]:
                began = clock()
                reply = send(line)
                done = clock()
                out.append((meta, done - began, reply))
                if done >= deadline:
                    break
        except Exception as exc:  # reported after the join
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    window_start = layers.clock()
    began = time.perf_counter()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    window = (window_start, layers.clock())
    for conn in conns:
        conn.close()
    if failures:
        raise BenchError(f"client failed: {failures[0]!r}")
    return records, elapsed, window


def check_answers(outcome: Outcome, records, cols, prefix: int) -> list:
    """Decode every answer, run the output checks, gather errors/checksums.

    Returns per-connection lists of ``(meta, latency, result)``; ``result``
    is None for a failed request.
    """
    n = len(cols[0])
    sums = {"rows": [], "values": [], "distinct": [], "pages_read": []}
    ranges = [[] for _ in cols]
    decoded = []
    for conn_records in records:
        out = []
        for position, (meta, latency, reply) in enumerate(conn_records):
            outcome.attempted += 1
            answer = json.loads(reply)
            kind, table = meta[0], meta[1]
            if not answer.get("ok"):
                outcome.fail(f"{kind} on t{table}: {answer.get('error')}")
                out.append((meta, latency, None))
                continue
            result = answer["result"]
            low, high = cols[table][0], cols[table][-1]
            if "rows" in result:
                if not 0.0 <= result["rows"] <= n * (1 + 1e-9):
                    outcome.fail(f"{kind} on t{table}: rows {result['rows']} outside [0, {n}]")
                if meta[2] is not None:
                    ranges[table].append((meta[2], meta[3], result["rows"]))
            if "value" in result and not low <= result["value"] <= high:
                outcome.fail(f"quantile on t{table}: {result['value']} outside [{low}, {high}]")
            if "distinct" in result and not 1 <= result["distinct"] <= n:
                outcome.fail(f"distinct on t{table}: {result['distinct']} outside [1, {n}]")
            if kind == "analyze" and not result.get("pages_read", 0) > 0:
                outcome.fail(f"analyze of t{table} read no pages")
            if position < prefix:
                for key in sums:
                    if key in result:
                        sums[key].append(float(result[key]))
            out.append((meta, latency, result))
        if len(conn_records) < prefix:
            outcome.fail(f"only {len(conn_records)} requests ran; the checksum needs {prefix}")
        decoded.append(out)
    for column, answers in zip(cols, ranges):
        if answers:
            lo, hi, rows = np.array(answers).T
            exact = np.searchsorted(column, hi, "right") - np.searchsorted(column, lo, "left")
            outcome.answer_err.extend((np.abs(rows - exact) / n).tolist())
    outcome.checksum = {
        "prefix": prefix, **{key: math.fsum(values) for key, values in sums.items()},
    }
    return decoded


def _domains(cols):
    return [(float(c[0]), float(c[-1])) for c in cols]


def _status(server: Server) -> dict:
    conn = server.connect()
    try:
        return conn.request({"op": "status"})["result"]
    finally:
        conn.close()


def _serve(tables, settings: Settings, warm: bool, make_streams) -> tuple[Outcome, list, list]:
    """Shared body of the TCP workloads: set up, warm up, load, check.

    Returns the outcome and, per connection, every decoded request
    ``(meta, latency, result)`` and the measured (post-warm-up) ones.
    """
    cols = columns(tables, settings.rows)
    server, setup = start_server(tables, settings, warm)
    try:
        streams = make_streams(_domains(cols))
        warm_records, _, _ = closed_loop(server, streams, settings.warmup)
        before = _status(server)
        records, elapsed, window = closed_loop(server, streams, settings.seconds)
        after = _status(server)
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        server.close()
    outcome = Outcome(setup, [], elapsed, rss, window)
    outcome.server = {
        section: {key: after[section][key] - before[section][key] for key in after[section]}
        for section in ("cache", "admission")
    }
    decoded = check_answers(
        outcome, [w + r for w, r in zip(warm_records, records)], cols, settings.prefix
    )
    measured = [conn[len(w):] for conn, w in zip(decoded, warm_records)]
    outcome.rtt_s = [lat for conn in measured for _, lat, _ in conn]
    return outcome, decoded, measured


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def serve_hot(settings: Settings) -> Outcome:
    """Warm cache, no builds: transport, dispatch, cache and BucketIndex."""
    outcome, _, _ = _serve(
        SERVE_TABLES, settings, True,
        lambda domains: [hot_stream(settings.seed, c, domains) for c in range(2)],
    )
    outcome.op_latency_s = list(outcome.rtt_s)
    outcome.detail = {
        "req_p99_ms": _ms(tail(outcome.op_latency_s, 0.99)),
        "range_err_p99": tail(outcome.answer_err, 0.99),
    }
    return outcome


def serve_churn(settings: Settings) -> Outcome:
    """Modifications beside reads: inline rebuilds on the serving path."""
    outcome, decoded, measured = _serve(
        SERVE_TABLES, settings, True,
        lambda domains: [
            churn_stream(settings.seed, c, domains, settings.rows) for c in range(2)
        ],
    )
    builds, reads = [], []
    for conn, tail_part in zip(decoded, measured):
        versions = {}
        first = len(conn) - len(tail_part)
        for position, (meta, latency, result) in enumerate(conn):
            if meta[0] == "modify" or result is None:
                continue
            rebuilt = versions.get(meta[1], result["version"]) < result["version"]
            versions[meta[1]] = result["version"]
            if position >= first:
                (builds if rebuilt else reads).append(latency)
    outcome.op_latency_s = list(outcome.rtt_s)
    refreshes = outcome.server["cache"]["refreshes"]
    if refreshes != len(builds):
        outcome.fail(f"{len(builds)} reads saw a new version but the cache refreshed {refreshes} times")
    outcome.detail = {
        "builds": len(builds),
        "build_p50_ms": _ms(tail(builds, 0.5)),
        "build_p95_ms": _ms(tail(builds, 0.95)),
        "read_p99_ms": _ms(tail(reads, 0.99)),
        "range_err_p99": tail(outcome.answer_err, 0.99),
    }
    return outcome


def analyze_cold(settings: Settings) -> Outcome:
    """Explicit ANALYZE of cold columns: engine, CVB, sampling and storage."""
    outcome, _, measured = _serve(
        COLD_TABLES, settings, False,
        lambda domains: [cold_stream(settings.seed, domains)],
    )
    builds = [(lat, result) for meta, lat, result in measured[0] if meta[0] == "analyze"]
    outcome.op_latency_s = [lat for lat, _ in builds]
    pages = [result["pages_read"] for _, result in builds if result]
    outcome.detail = {
        "builds": len(builds),
        "build_p95_ms": _ms(tail(outcome.op_latency_s, 0.95)),
        "pages_per_build": sum(pages) / max(1, len(pages)),
        "shed": outcome.server["admission"]["shed"],
        "range_err_p99": tail(outcome.answer_err, 0.99),
    }
    return outcome


def figure_sweep(settings: Settings) -> Outcome:
    """``repro figure`` 5, 6 and 9 at medium scale: the research path.

    Every pass runs the same three commands, so every pass must print the
    same bytes; the first pass warms up and is not timed.
    """
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    setup = []
    count = 1 if settings.spans else settings.setups
    for attempt in range(count):
        command = [sys.executable, str(HERE / "child.py")]
        if settings.spans:
            command += ["--spans", settings.spans]
        command += [
            "sweep", "--seed", str(settings.seed), "--figure6-seed", str(FIXED_SEED),
            "--trials", str(settings.trials), "--seconds", str(settings.seconds),
        ]
        began = time.perf_counter()
        with open(settings.out_dir / "figure.log", "ab") as log:
            proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, env=child_env(), cwd=ROOT,
            )
        try:
            if read_line(proc.stdout, 120).strip() != "READY":
                raise BenchError("figure process did not start")
            setup.append(time.perf_counter() - began)
            last = attempt == count - 1
            proc.stdin.write(b"run\n" if last else b"exit\n")
            proc.stdin.flush()
            if last:
                result = json.loads(read_line(proc.stdout, settings.seconds * 4 + 120))
        except BaseException:
            proc.kill()
            raise
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"figure process exited {proc.returncode}")
    passes = result["passes"]
    outcome = Outcome(
        setup, [p["seconds"] for p in passes[1:]],
        (result["window"][1] - result["window"][0]) / 1e9,
        result["peak_rss_mb"], tuple(result["window"]),
    )
    outcome.attempted = len(passes) * 3
    for p in passes:
        if p["sha256"] != passes[0]["sha256"]:
            outcome.fail("a figure pass printed different output from the first")
    outcome.answer_err = gee_errors(passes[0]["figure9"])
    outcome.checksum = {"output_sha256": passes[0]["sha256"]}
    outcome.detail = {"passes": len(passes) - 1}
    return outcome


def gee_errors(figure9: str) -> list[float]:
    """``|numDVEst - numDVReal| / numDVReal`` for each row of figure 9."""
    errors = []
    for line in figure9.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0][0].isdigit():
            real, estimate = float(fields[1]), float(fields[3])
            errors.append(abs(estimate - real) / real)
    return errors


def _ms(entry: dict) -> dict:
    if entry["value"] is not None:
        entry["value"] *= 1e3
    return entry


WORKLOADS = {
    "serve_hot": serve_hot,
    "serve_churn": serve_churn,
    "analyze_cold": analyze_cold,
    "figure_sweep": figure_sweep,
}
