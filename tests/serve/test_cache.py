"""StatsCache: version-validated LRU semantics over AutoStatistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Table
from repro.engine.maintenance import AutoStatistics, RefreshPolicy
from repro.exceptions import ParameterError, StatisticsNotFoundError
from repro.serve import StatsCache


def _auto():
    return AutoStatistics(policy=RefreshPolicy(fraction=0.2, floor_rows=100))


def _table(name="t", n=20_000):
    return Table(name, {"x": np.arange(n)})


class TestLookup:
    def test_first_lookup_misses_then_hits(self):
        table, auto = _table(), _auto()
        auto.analyze(table, "x", k=8, f=0.3, rng=0)
        cache = StatsCache(auto)
        entry = cache.lookup(table, "x")
        again = cache.lookup(table, "x")
        assert again is entry
        assert cache.counters() == {
            "hits": 1, "misses": 1, "refreshes": 0, "evictions": 0,
        }

    def test_unanalyzed_column_raises(self):
        table, auto = _table(), _auto()
        cache = StatsCache(auto)
        with pytest.raises(StatisticsNotFoundError):
            cache.lookup(table, "x")
        assert len(cache) == 0

    def test_stale_lookup_refreshes_entry(self):
        table, auto = _table(), _auto()
        auto.analyze(table, "x", k=8, f=0.3, rng=0)
        cache = StatsCache(auto)
        first = cache.lookup(table, "x")
        auto.record_modifications("t", "x", 5_000)  # past the threshold
        refreshed = cache.lookup(table, "x", rng=1)
        assert refreshed is not first
        assert refreshed.version == first.version + 1
        assert cache.counters()["refreshes"] == 1

    def test_entry_bundles_index_at_version(self):
        table, auto = _table(), _auto()
        auto.analyze(table, "x", k=8, f=0.3, rng=0)
        cache = StatsCache(auto)
        entry = cache.lookup(table, "x")
        assert entry.index.k == entry.statistics.histogram.k
        assert entry.version == auto.manager.catalog.version("t", "x")


class TestInstall:
    def test_install_makes_peek_visible(self):
        table, auto = _table(), _auto()
        stats = auto.analyze(table, "x", k=8, f=0.3, rng=0)
        cache = StatsCache(auto)
        entry = cache.install(stats)
        assert cache.peek("t", "x") is entry
        assert cache.peek("t", "missing") is None


class TestLru:
    def test_capacity_evicts_least_recent(self):
        auto = _auto()
        tables = [_table(name) for name in ("a", "b", "c")]
        for table in tables:
            auto.analyze(table, "x", k=8, f=0.3, rng=0)
        cache = StatsCache(auto, capacity=2)
        cache.lookup(tables[0], "x")
        cache.lookup(tables[1], "x")
        cache.lookup(tables[0], "x")  # refresh a's recency
        cache.lookup(tables[2], "x")  # evicts b, the least recent
        assert cache.peek("b", "x") is None
        assert cache.peek("a", "x") is not None
        assert cache.peek("c", "x") is not None
        assert cache.counters()["evictions"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            StatsCache(capacity=0)
