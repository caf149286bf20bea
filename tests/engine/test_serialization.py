"""Tests for ColumnStatistics persistence."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.durability import CatalogStore
from repro.engine import StatisticsManager, Table
from repro.engine.serialization import (
    statistics_from_dict,
    statistics_from_json,
    statistics_to_dict,
    statistics_to_json,
)
from repro.exceptions import ParameterError
from repro.workloads import make_dataset


@pytest.fixture
def built_stats():
    dataset = make_dataset("zipf2", 20_000, rng=0)
    table = Table("sales", {"amount": dataset.values})
    manager = StatisticsManager()
    stats = manager.analyze(table, "amount", k=20, f=0.25, rng=1)
    return manager, stats, dataset


class TestStatisticsRoundTrip:
    def test_dict_roundtrip_preserves_fields(self, built_stats):
        _, stats, _ = built_stats
        rebuilt = statistics_from_dict(statistics_to_dict(stats))
        assert rebuilt.table_name == stats.table_name
        assert rebuilt.column_name == stats.column_name
        assert rebuilt.n == stats.n
        assert rebuilt.density == stats.density
        assert rebuilt.selfjoin_density == stats.selfjoin_density
        assert rebuilt.distinct_estimate == stats.distinct_estimate
        assert rebuilt.histogram == stats.histogram
        assert rebuilt.build_params == stats.build_params

    def test_sample_and_trace_not_persisted(self, built_stats):
        _, stats, _ = built_stats
        payload = statistics_to_dict(stats)
        assert "sample" not in payload
        assert "cvb_result" not in payload
        rebuilt = statistics_from_dict(payload)
        assert rebuilt.sample is None
        assert rebuilt.cvb_result is None

    def test_estimates_survive_roundtrip(self, built_stats):
        _, stats, dataset = built_stats
        rebuilt = statistics_from_json(statistics_to_json(stats))
        lo, hi = 10, 300
        assert rebuilt.estimate_range(lo, hi) == pytest.approx(
            stats.estimate_range(lo, hi)
        )
        assert rebuilt.estimate_equality(5) == pytest.approx(
            stats.estimate_equality(5)
        )

    def test_bad_json_rejected(self):
        with pytest.raises(ParameterError):
            statistics_from_json("{broken")

    def test_wrong_version_rejected(self, built_stats):
        _, stats, _ = built_stats
        payload = statistics_to_dict(stats)
        payload["format_version"] = 99
        with pytest.raises(ParameterError):
            statistics_from_dict(payload)

    def test_missing_field_rejected(self, built_stats):
        _, stats, _ = built_stats
        payload = statistics_to_dict(stats)
        del payload["density"]
        with pytest.raises(ParameterError):
            statistics_from_dict(payload)



#: Each malformed bundle, as ``(path, value)``: the saved bundle with the
#: field at *path* set to *value*.  Before they were rejected, `repro
#: estimate` answered 0 rows for NaN separators, printed `nan` for a NaN
#: density and died with a traceback on `"n": "x"`.
MALFORMED = {
    # k = 10, so nine separators.
    "nan-separators": (("histogram", "separators"), [float("nan")] * 9),
    "inf-separator": (("histogram", "separators", 0), float("inf")),
    "string-separator": (("histogram", "separators", 0), "1"),
    "nan-min-value": (("histogram", "min_value"), float("nan")),
    "inf-max-value": (("histogram", "max_value"), float("inf")),
    "string-max-value": (("histogram", "max_value"), "999"),
    "fractional-count": (("histogram", "counts", 0), 1.5),
    "fractional-eq-count": (("histogram", "eq_counts", 0), 0.5),
    "huge-count": (("histogram", "counts", 0), 10**30),
    "ragged-counts": (("histogram", "counts"), [[1], [1, 2]]),
    "equi-width-histogram": (
        ("histogram",), {"type": "equi_width", "edges": [0, 1], "counts": [1]}
    ),
    "nan-density": (("density",), float("nan")),
    "inf-selfjoin-density": (("selfjoin_density",), float("inf")),
    "nan-distinct-estimate": (("distinct_estimate",), float("nan")),
    "string-n": (("n",), "x"),
    "fractional-n": (("n",), 1000.5),
    "bool-n": (("n",), True),
    "string-sample-size": (("sample_size",), "1000"),
    "string-converged": (("converged",), "false"),
    "list-io": (("io",), [1, 2]),
    "numeric-table-name": (("table_name",), 7),
}


@pytest.fixture(scope="module")
def saved_bundle() -> str:
    """A valid 1,000-row bundle, as ``repro analyze --save`` writes it."""
    values = np.random.default_rng(0).integers(1, 1000, size=1000)
    stats = StatisticsManager().analyze(
        Table("cli", {"value": values}), "value", k=10, f=0.1, rng=0
    )
    return statistics_to_json(stats)


@pytest.fixture(params=sorted(MALFORMED))
def malformed(request, saved_bundle) -> dict:
    """The saved bundle's payload with one field malformed."""
    payload = json.loads(saved_bundle)
    (*parents, last), value = MALFORMED[request.param]
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    return payload


class TestMalformedBundles:
    """A malformed bundle is a typed error, never a silent answer."""

    def test_from_dict_raises_parameter_error(self, malformed):
        with pytest.raises(ParameterError):
            statistics_from_dict(malformed)

    def test_estimate_cli_prints_one_error_line(
        self, malformed, tmp_path, capsys
    ):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(malformed))
        code = main(
            ["estimate", str(path), "--range", "10", "500", "--equals", "5",
             "--distinct"]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_snapshot_holding_one_is_corrupt(
        self, malformed, saved_bundle, tmp_path
    ):
        store = CatalogStore(tmp_path)
        store.put(statistics_from_json(saved_bundle))
        store.checkpoint()
        path = tmp_path / CatalogStore.SNAPSHOT_NAME
        snapshot = json.loads(path.read_text())
        snapshot["entries"][0]["statistics"] = malformed
        path.write_text(json.dumps(snapshot))
        reopened = CatalogStore(tmp_path)
        assert reopened.recoveries == {"corrupt_snapshot": 1}
        assert len(reopened.catalog) == 0

    def test_saved_bundle_itself_is_valid(self, saved_bundle, tmp_path, capsys):
        path = tmp_path / "stats.json"
        path.write_text(saved_bundle)
        assert main(["estimate", str(path), "--range", "10", "500"]) == 0
        assert "rows with 10 <= value <= 500" in capsys.readouterr().out
