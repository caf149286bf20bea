"""Tests for statistics staleness tracking and auto-refresh."""

import numpy as np
import pytest

from repro.engine import Table
from repro.engine.maintenance import (
    AutoStatistics,
    ModificationCounter,
    RefreshPolicy,
)
from repro.exceptions import ParameterError


class TestModificationCounter:
    def test_accumulates(self):
        counter = ModificationCounter()
        counter.record("t", "x", 10)
        counter.record("t", "x", 5)
        assert counter.since_refresh("t", "x") == 15

    def test_independent_keys(self):
        counter = ModificationCounter()
        counter.record("t", "x", 10)
        assert counter.since_refresh("t", "y") == 0
        assert counter.since_refresh("u", "x") == 0

    def test_reset(self):
        counter = ModificationCounter()
        counter.record("t", "x", 10)
        counter.reset("t", "x")
        assert counter.since_refresh("t", "x") == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            ModificationCounter().record("t", "x", -1)

    def test_concurrent_records_all_count(self, contended):
        counter = ModificationCounter()
        contended(
            lambda _: [counter.record("t", "x", 1) for _ in range(20_000)]
        )
        assert counter.since_refresh("t", "x") == contended.threads * 20_000


class TestRefreshPolicy:
    def test_default_threshold(self):
        policy = RefreshPolicy()
        assert policy.threshold(10_000) == 2_000
        assert policy.threshold(100) == 500  # the floor dominates

    def test_custom_policy(self):
        policy = RefreshPolicy(fraction=0.5, floor_rows=10)
        assert policy.threshold(1000) == 500

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            RefreshPolicy(fraction=0.0)
        with pytest.raises(ParameterError):
            RefreshPolicy(floor_rows=-1)

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            RefreshPolicy().threshold(-1)


class TestAutoStatistics:
    def _setup(self, n=20_000):
        table = Table("t", {"x": np.arange(n)})
        auto = AutoStatistics(policy=RefreshPolicy(fraction=0.2, floor_rows=100))
        auto.analyze(table, "x", k=10, f=0.3, rng=0)
        return table, auto

    def test_fresh_statistics_not_rebuilt(self):
        table, auto = self._setup()
        before = auto.manager.catalog.version("t", "x")
        auto.record_modifications("t", "x", 10)
        auto.ensure_fresh(table, "x", rng=1)
        assert auto.manager.catalog.version("t", "x") == before
        assert auto.refresh_count == 0

    def test_stale_statistics_rebuilt(self):
        table, auto = self._setup()
        auto.record_modifications("t", "x", 5_000)  # > 20% of 20k
        assert auto.is_stale("t", "x")
        auto.ensure_fresh(table, "x", rng=2)
        assert auto.refresh_count == 1
        assert not auto.is_stale("t", "x")

    def test_refresh_reuses_build_params(self):
        table, auto = self._setup()
        auto.record_modifications("t", "x", 5_000)
        refreshed = auto.ensure_fresh(table, "x", rng=3)
        assert refreshed.histogram.k == 10
        assert refreshed.build_params["f"] == 0.3

    def test_refresh_sees_new_data(self):
        table = Table("t", {"x": np.arange(10_000)})
        auto = AutoStatistics(policy=RefreshPolicy(fraction=0.1, floor_rows=10))
        auto.analyze(table, "x", k=10, f=0.3, rng=4)
        old_max = auto.manager.statistics("t", "x").histogram.max_value

        # Simulate growth: a new table object with a wider domain.
        grown = Table("t", {"x": np.arange(40_000)})
        auto.record_modifications("t", "x", 30_000)
        refreshed = auto.ensure_fresh(grown, "x", rng=5)
        assert refreshed.histogram.max_value > old_max
        assert refreshed.n == 40_000

    def test_counter_resets_after_analyze(self):
        table, auto = self._setup()
        auto.record_modifications("t", "x", 5_000)
        auto.analyze(table, "x", k=10, f=0.3, rng=6)
        assert not auto.is_stale("t", "x")


class TestSingleFlightRefresh:
    """Concurrent stale readers trigger exactly one rebuild per column."""

    def test_concurrent_misses_build_once(self, monkeypatch):
        import threading

        from repro.engine import maintenance

        table = Table("t", {"x": np.arange(20_000)})
        auto = AutoStatistics(
            policy=RefreshPolicy(fraction=0.2, floor_rows=100)
        )
        auto.analyze(table, "x", k=10, f=0.3, rng=0)
        auto.record_modifications("t", "x", 5_000)

        builds = []
        both_stale = threading.Barrier(2, timeout=5.0)
        real = maintenance.build_or_fallback

        def slow_build(*args, **kwargs):
            # Hold the flight lock long enough that the other reader is
            # guaranteed to pass its pre-lock staleness check and block on
            # the lock; losing single-flight would then build twice.
            import time

            builds.append(threading.get_ident())
            time.sleep(0.1)
            return real(*args, **kwargs)

        monkeypatch.setattr(maintenance, "build_or_fallback", slow_build)

        results, errors = [], []

        def reader(rng_seed):
            try:
                both_stale.wait()
                results.append(auto.ensure_fresh(table, "x", rng=rng_seed))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,)) for seed in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert not errors
        assert len(builds) == 1, f"expected one build, got {len(builds)}"
        assert auto.refresh_count == 1
        assert len(results) == 2
        # The waiter sees the rebuilt (not the stale) bundle.
        versions = {auto.manager.catalog.version("t", "x")}
        assert versions == {2}
        assert not auto.is_stale("t", "x")

    def test_per_column_locks_are_independent(self):
        auto = AutoStatistics()
        lock_a = auto._flight_lock("t", "x")
        lock_b = auto._flight_lock("t", "y")
        assert lock_a is not lock_b
        assert auto._flight_lock("t", "x") is lock_a


class TestConcurrentTallies:
    """Refreshes of different columns run under different flight locks,
    so the refresh and degraded tallies need their own lock."""

    @pytest.mark.parametrize("ok", [True, False])
    def test_every_refresh_is_counted(self, contended, monkeypatch, ok):
        from repro.engine import maintenance

        table = Table("t", {
            f"c{i}": np.arange(1_000) for i in range(contended.threads)
        })
        auto = AutoStatistics(policy=RefreshPolicy(floor_rows=1))
        for name in table.column_names:
            auto.analyze(table, name, k=4, f=0.3, rng=0)
        monkeypatch.setattr(
            maintenance, "build_or_fallback",
            lambda manager, table, column, fallback, **_: (fallback, ok),
        )

        def refresher(index):
            name = f"c{index}"
            for _ in range(100):
                auto.record_modifications("t", name, 1_000)
                auto.ensure_fresh(table, name)

        contended(refresher, preempt=("_refresh_locked",))
        counted = auto.refresh_count if ok else auto.degraded_count
        assert counted == contended.threads * 100
