"""Request schedules, percentiles, and a tiny run of each workload driver.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import drivers  # noqa: E402

DOMAINS = [(1.0, 100.0), (0.0, 1.0), (-5.0, 5.0), (10.0, 1e6)]


def take(stream, count):
    return list(itertools.islice(stream, count))


class TestSchedules:
    @pytest.mark.parametrize("make", [
        lambda seed: drivers.hot_stream(seed, 1, DOMAINS),
        lambda seed: drivers.churn_stream(seed, 1, DOMAINS, 1000),
        lambda seed: drivers.cold_stream(seed, DOMAINS * 2),
    ])
    def test_same_seed_same_requests(self, make):
        first = [line for _, line in take(make(7), 500)]
        assert first == [line for _, line in take(make(7), 500)]
        assert first != [line for _, line in take(make(8), 500)]

    def test_requests_are_valid_protocol_lines(self):
        for meta, line in take(drivers.hot_stream(0, 0, DOMAINS), 200):
            request = json.loads(line)
            assert request["op"] == meta[0]
            assert request["table"] == f"t{meta[1]}"
            if meta[0] == "estimate_range":
                lo, hi = DOMAINS[meta[1]]
                assert lo <= request["lo"] <= request["hi"] <= hi

    def test_each_column_belongs_to_one_connection(self):
        for conn in (0, 1):
            per_column = {}
            for meta, line in take(drivers.churn_stream(3, conn, DOMAINS, 1000), 2000):
                assert meta[1] in (2 * conn, 2 * conn + 1)
                per_column.setdefault(meta[1], []).append(json.loads(line))
            for requests in per_column.values():
                for position, request in enumerate(requests, start=1):
                    is_modify = position % drivers.CHURN_EVERY == 0
                    assert (request["op"] == "modify") == is_modify
                    if is_modify:
                        assert request["rows"] == 40

    def test_cold_rounds_cover_every_table_and_parameter_once(self):
        domains = DOMAINS * 2
        rounds = len(domains) * len(drivers.COLD_PARAMS)
        per_build = drivers.PROBES_PER_BUILD + 1
        requests = take(drivers.cold_stream(0, domains), rounds * per_build)
        builds = [json.loads(line) for meta, line in requests if meta[0] == "analyze"]
        assert len(builds) == rounds
        assert len({(b["table"], b["params"]["layout"], b["params"]["k"]) for b in builds}) == rounds
        for i in range(rounds):
            probes = requests[i * per_build + 1:(i + 1) * per_build]
            assert {meta[1] for meta, _ in probes} == {requests[i * per_build][0][1]}


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert drivers.percentile(values, 0.5) == 50
        assert drivers.percentile(values, 0.99) == 99
        assert drivers.percentile(values, 1.0) == 100
        assert drivers.percentile([5.0], 0.99) == 5.0
        assert drivers.percentile(list(reversed(values)), 0.01) == 1

    def test_ten_beyond_rule(self):
        assert drivers.beyond(200, 0.95) == 10
        assert drivers.beyond(1000, 0.99) == 10
        assert drivers.tail(list(range(200)), 0.95)["value"] == 189
        assert drivers.tail(list(range(199)), 0.95)["value"] is None
        assert drivers.tail(list(range(999)), 0.99) == {"value": None, "n": 999, "beyond": 9}

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            drivers.percentile([], 0.5)


@pytest.fixture
def tiny(tmp_path):
    return drivers.Settings(
        seed=1, seconds=0.5, warmup=0.2, rows=20_000, setups=2, prefix=20, trials=1,
        out_dir=tmp_path,
    )


@pytest.mark.parametrize("workload", sorted(drivers.WORKLOADS))
def test_tiny_run_of_each_workload(workload, tiny):
    outcome = drivers.WORKLOADS[workload](tiny)
    assert outcome.errors == []
    assert outcome.failed == 0
    assert outcome.attempted > 0
    assert len(outcome.setup_s) == 2
    assert outcome.op_latency_s and outcome.elapsed_s > 0
    assert outcome.answer_err and outcome.peak_rss_mb > 0
    assert outcome.checksum


def test_churn_builds_match_cache_refreshes(tiny):
    tiny.seconds = 2.0
    outcome = drivers.serve_churn(tiny)
    assert outcome.failed == 0
    assert outcome.detail["builds"] == outcome.server["cache"]["refreshes"] > 0
