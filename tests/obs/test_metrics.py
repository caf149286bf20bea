"""Registry behavior: emission, strict validation, labels, exporters."""

import json

import pytest

from repro.exceptions import ParameterError
from repro.obs import metrics
from repro.obs.catalog import COUNTER, GAUGE, HISTOGRAM, METRICS, SPANS
from repro.obs.metrics import (
    MetricsRegistry,
    equi_height_buckets,
    render_json,
    render_text,
)


class TestCatalog:
    def test_every_metric_name_matches_its_key(self):
        for name, spec in METRICS.items():
            assert spec.name == name

    def test_metric_types_are_known(self):
        for spec in METRICS.values():
            assert spec.type in (COUNTER, GAUGE, HISTOGRAM)

    def test_names_follow_prometheus_convention(self):
        for name, spec in METRICS.items():
            assert name.startswith("repro_")
            if spec.type == COUNTER:
                assert name.endswith("_total") or name.endswith(
                    "_seconds_total"
                )

    def test_every_metric_has_help(self):
        assert all(spec.help for spec in METRICS.values())

    def test_span_names_are_dotted(self):
        for name in SPANS:
            assert "." in name


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("repro_page_reads_total")
        reg.inc("repro_page_reads_total", 4)
        assert reg.counter_value("repro_page_reads_total") == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="counters only go up"):
            reg.inc("repro_page_reads_total", -1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("repro_fault_events_total", kind="transient")
        reg.inc("repro_fault_events_total", 2, kind="corrupt")
        assert reg.counter_value("repro_fault_events_total", kind="transient") == 1
        assert reg.counter_value("repro_fault_events_total", kind="corrupt") == 2
        assert len(reg) == 2

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_pool_workers", 4)
        reg.set_gauge("repro_pool_workers", 2)
        assert reg.gauge_value("repro_pool_workers") == 2

    def test_histogram_keeps_observations_in_order(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.observe("repro_cvb_deviation_ratio", v)
        assert reg.observations("repro_cvb_deviation_ratio") == [3.0, 1.0, 2.0]

    def test_strict_rejects_undeclared_name(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="not declared"):
            reg.inc("repro_bogus_total")

    def test_strict_rejects_wrong_type(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="is a counter"):
            reg.observe("repro_page_reads_total", 1.0)

    def test_strict_rejects_wrong_label_set(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="takes labels"):
            reg.inc("repro_fault_events_total")
        with pytest.raises(ParameterError, match="takes labels"):
            reg.inc("repro_fault_events_total", kind="transient", extra="x")

    def test_non_strict_allows_adhoc_metrics(self):
        reg = MetricsRegistry(strict=False)
        reg.inc("adhoc_total", 3, anything="goes")
        assert reg.counter_value("adhoc_total", anything="goes") == 3

    def test_reset_clears_values(self):
        reg = MetricsRegistry()
        reg.inc("repro_page_reads_total")
        reg.observe("repro_cvb_deviation_ratio", 1.0)
        reg.reset()
        assert len(reg) == 0
        assert reg.names() == []

    def test_snapshot_roundtrips_through_merge(self):
        reg = MetricsRegistry()
        reg.inc("repro_page_reads_total", 7)
        reg.set_gauge("repro_pool_workers", 3)
        reg.observe("repro_cvb_deviation_ratio", 0.5)
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        assert other.snapshot() == reg.snapshot()

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("repro_resilient_reads_total", outcome="delivered")
        json.dumps(reg.snapshot())


class TestActiveRegistryPlumbing:
    def test_disabled_by_default(self):
        assert not metrics.enabled()
        # No-ops must not raise nor require a registry.
        metrics.inc("repro_page_reads_total")
        metrics.set_gauge("repro_pool_workers", 1)
        metrics.observe("repro_cvb_deviation_ratio", 1.0)

    def test_collecting_routes_and_restores(self):
        assert metrics.active_registry() is None
        with metrics.collecting() as reg:
            assert metrics.active_registry() is reg
            metrics.inc("repro_page_reads_total")
        assert metrics.active_registry() is None
        assert reg.counter_value("repro_page_reads_total") == 1

    def test_collecting_nests(self):
        with metrics.collecting() as outer:
            metrics.inc("repro_page_reads_total")
            with metrics.collecting() as inner:
                metrics.inc("repro_page_reads_total", 5)
            assert metrics.active_registry() is outer
            metrics.inc("repro_page_reads_total")
        assert outer.counter_value("repro_page_reads_total") == 2
        assert inner.counter_value("repro_page_reads_total") == 5


class TestEquiHeightBuckets:
    def test_partitions_all_observations(self):
        values = [float(v) for v in range(17)]
        buckets = equi_height_buckets(values, k=4)
        assert sum(b["count"] for b in buckets) == 17
        les = [b["le"] for b in buckets]
        assert les == sorted(les)
        assert les[-1] == max(values)

    def test_empty_input(self):
        assert equi_height_buckets([], k=8) == []

    def test_fewer_values_than_buckets(self):
        buckets = equi_height_buckets([2.0, 1.0], k=8)
        assert sum(b["count"] for b in buckets) == 2

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            equi_height_buckets([1.0], k=0)

    def test_pure_function_of_multiset(self):
        a = equi_height_buckets([3.0, 1.0, 2.0, 2.0], k=2)
        b = equi_height_buckets([2.0, 2.0, 1.0, 3.0], k=2)
        assert a == b


class TestExporters:
    def _sample_registry(self):
        reg = MetricsRegistry()
        reg.inc("repro_page_reads_total", 12)
        reg.inc("repro_fault_events_total", 2, kind="transient")
        reg.inc("repro_fault_events_total", 1, kind="corrupt")
        reg.set_gauge("repro_pool_workers", 4)
        for v in (0.5, 1.5, 0.25):
            reg.observe("repro_cvb_deviation_ratio", v)
        return reg

    def test_text_has_help_type_and_series(self):
        text = render_text(self._sample_registry())
        assert "# TYPE repro_page_reads_total counter" in text
        assert "repro_page_reads_total 12" in text
        assert '# HELP repro_fault_events_total' in text
        assert 'repro_fault_events_total{kind="corrupt"} 1' in text
        assert 'repro_fault_events_total{kind="transient"} 2' in text
        assert "# TYPE repro_pool_workers gauge" in text
        assert "repro_cvb_deviation_ratio_count 3" in text
        assert "repro_cvb_deviation_ratio_sum 2.25" in text
        assert "_bucket{le=" in text

    def test_text_sorted_by_name(self):
        text = render_text(self._sample_registry())
        series_names = [
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert series_names == sorted(series_names)

    def test_json_parses_and_sorts(self):
        payload = json.loads(render_json(self._sample_registry()))
        names = [m["name"] for m in payload["metrics"]]
        assert names == sorted(names)
        hist = [m for m in payload["metrics"] if m["type"] == "histogram"]
        assert hist and hist[0]["count"] == 3
        assert sum(b["count"] for b in hist[0]["buckets"]) == 3

    def test_exports_deterministic_across_emission_order(self):
        a = MetricsRegistry()
        a.inc("repro_fault_events_total", kind="transient")
        a.inc("repro_page_reads_total", 3)
        b = MetricsRegistry()
        b.inc("repro_page_reads_total", 3)
        b.inc("repro_fault_events_total", kind="transient")
        assert render_text(a) == render_text(b)
        assert render_json(a) == render_json(b)

    def test_empty_registry_renders_empty(self):
        assert render_text(MetricsRegistry()) == ""
        assert json.loads(render_json(MetricsRegistry())) == {
            "metrics": [],
            "schema_version": 1,
        }
