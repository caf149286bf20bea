"""Tests for the statistics catalog."""

import numpy as np
import pytest

from repro.engine import StatisticsManager, Table
from repro.engine.catalog import Catalog
from repro.exceptions import StatisticsNotFoundError


def build_stats(seed=0):
    table = Table("t", {"x": np.arange(2000)})
    manager = StatisticsManager()
    stats = manager.analyze(table, "x", k=10, f=0.3, method="fullscan", rng=seed)
    return stats


class TestCatalog:
    def test_put_and_get(self):
        catalog = Catalog()
        stats = build_stats()
        catalog.put(stats)
        assert catalog.get("t", "x") is stats
        assert ("t", "x") in catalog
        assert len(catalog) == 1

    def test_missing_raises(self):
        catalog = Catalog()
        with pytest.raises(StatisticsNotFoundError):
            catalog.get("t", "ghost")

    def test_versioning(self):
        catalog = Catalog()
        stats = build_stats()
        assert catalog.version("t", "x") == 0
        catalog.put(stats)
        assert catalog.version("t", "x") == 1
        catalog.put(stats)
        assert catalog.version("t", "x") == 2

    def test_drop_idempotent(self):
        catalog = Catalog()
        catalog.put(build_stats())
        catalog.drop("t", "x")
        catalog.drop("t", "x")
        assert len(catalog) == 0

    def test_keys_sorted(self):
        catalog = Catalog()
        a = build_stats()
        a.column_name = "b"
        catalog.put(a)
        b = build_stats()
        b.column_name = "a"
        catalog.put(b)
        assert catalog.keys() == [("t", "a"), ("t", "b")]


class TestConcurrentPuts:
    def test_every_put_gets_its_own_version(self, contended):
        catalog = Catalog()
        stats = build_stats()
        versions = [[] for _ in range(contended.threads)]

        def putter(index):
            versions[index] = [catalog.put(stats) for _ in range(20_000)]

        contended(putter)
        puts = contended.threads * 20_000
        issued = sorted(v for per_thread in versions for v in per_thread)
        assert issued == list(range(1, puts + 1))
        assert catalog.version("t", "x") == puts
