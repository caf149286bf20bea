"""Lifecycle integration: build -> persist -> reload -> refresh.

Exercises the catalog operations a long-lived deployment performs, across
module boundaries: CVB builds, JSON persistence and policy-driven refresh,
all against the storage simulator.
"""

import numpy as np
import pytest

from repro.durability import CatalogStore
from repro.engine import (
    AutoStatistics,
    RefreshPolicy,
    StatisticsManager,
    Table,
)
from repro.engine.serialization import (
    statistics_from_json,
    statistics_to_json,
)
from repro.workloads import make_dataset


class TestLifecycle:
    def test_persist_reload_estimate(self):
        """Statistics survive a round trip to JSON and answer the same."""
        dataset = make_dataset("zipf1", 50_000, rng=0)
        table = Table("t", {"x": dataset.values})
        manager = StatisticsManager()
        stats = manager.analyze(table, "x", k=40, f=0.2, rng=1)

        reloaded = statistics_from_json(statistics_to_json(stats))
        for lo, hi in [(5, 100), (200, 450), (1, 500)]:
            assert reloaded.estimate_range(lo, hi) == pytest.approx(
                stats.estimate_range(lo, hi)
            )

    def test_catalog_survives_dump_and_refresh_cycle(self, tmp_path):
        """Dump a multi-column catalog to a store snapshot, reopen it
        elsewhere, keep refreshing the original with the auto policy."""
        rng = np.random.default_rng(6)
        table = Table(
            "orders",
            {
                "qty": rng.integers(0, 500, size=30_000),
                "amount": rng.lognormal(3, 1, size=30_000),
            },
        )
        auto = AutoStatistics(policy=RefreshPolicy(fraction=0.1))
        auto.analyze(table, "qty", k=20, f=0.25, rng=7)
        auto.analyze(table, "amount", k=20, f=0.25, rng=8)

        # Ship the catalog elsewhere.
        catalog = auto.manager.catalog
        store = CatalogStore(tmp_path)
        for key in catalog.keys():
            store.put(catalog.get(*key))
        store.checkpoint()
        restored = CatalogStore(tmp_path).catalog
        assert restored.keys() == [("orders", "amount"), ("orders", "qty")]
        for key in catalog.keys():
            assert restored.get(*key).histogram == catalog.get(*key).histogram

        # Meanwhile the original keeps serving refreshes.
        auto.record_modifications("orders", "qty", 10_000)
        refreshed = auto.ensure_fresh(table, "qty", rng=9)
        assert auto.refresh_count == 1
        assert refreshed.n == 30_000

    def test_all_columns_pipeline(self):
        """ANALYZE + catalog + range answers on every column."""
        rng = np.random.default_rng(10)
        table = Table(
            "t",
            {
                "a": rng.integers(0, 1_000, size=20_000),
                "b": rng.normal(50, 10, size=20_000),
                "c": np.repeat(np.arange(200), 100),
            },
        )
        manager = StatisticsManager()
        for seed, name in enumerate(table.column_names, start=11):
            manager.analyze(table, name, k=20, f=0.25, rng=seed)
        assert len(manager.catalog) == 3
        for name in ("a", "b", "c"):
            column = table.column(name).sorted_values()
            lo, hi = float(np.quantile(column, 0.2)), float(
                np.quantile(column, 0.7)
            )
            truth = int(((column >= lo) & (column <= hi)).sum())
            est = manager.estimate_range("t", name, lo, hi)
            assert est == pytest.approx(truth, rel=0.25), name
