"""Statistics persistence: (de)serialising ColumnStatistics bundles.

Statistics are only useful if the optimizer can read them later (and on
another node): this module round-trips the full
:class:`~repro.engine.statistics.ColumnStatistics` bundle — histogram
(via :mod:`repro.core.serialization`), densities, distinct estimate, build
provenance — through JSON-safe dicts.  The raw sample and CVB trace are
deliberately *not* persisted: real catalogs store the derived statistics,
not the sample (SQL Server's stats blob works the same way).  A whole
catalog, with its per-key versions, persists through
:class:`~repro.durability.CatalogStore`, which writes these dicts.
"""

from __future__ import annotations

import dataclasses
import json
import numbers

from ..core.histogram import EquiHeightHistogram
from ..core.serialization import (
    checked_field,
    histogram_from_dict,
    histogram_to_dict,
)
from ..exceptions import ParameterError
from .statistics import ColumnStatistics

__all__ = [
    "statistics_to_dict",
    "statistics_from_dict",
    "statistics_to_json",
    "statistics_from_json",
]

_FORMAT_VERSION = 1

#: Each serialised field besides the histogram: the type it must have,
#: and the conversion that hands the bundle plain Python values.
_FIELDS = {
    "table_name": (str, str),
    "column_name": (str, str),
    "n": (numbers.Integral, int),
    "density": (numbers.Real, float),
    "selfjoin_density": (numbers.Real, float),
    "distinct_estimate": (numbers.Real, float),
    "method": (str, str),
    "sample_size": (numbers.Integral, int),
    "pages_read": (numbers.Integral, int),
    "converged": (bool, bool),
    "degraded": (bool, bool),
    "io": (dict, dict),
    "build_params": (dict, dict),
}

#: Fields that bundles written before they existed may leave out.
_FIELD_DEFAULTS = {"degraded": False, "io": {}, "build_params": {}}


def _jsonable_params(params: dict) -> dict:
    """Build params with policy dataclasses flattened to plain dicts.

    Resilience builds carry :class:`~repro.storage.faults.FaultPolicy` /
    ``RetryPolicy`` / ``ReadBudget`` instances in ``build_params``; persisted
    provenance keeps their fields but not the types (a stats blob stores
    derived statistics, not live configuration objects).
    """
    return {
        key: dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
        for key, value in params.items()
    }


def statistics_to_dict(statistics: ColumnStatistics) -> dict:
    """JSON-safe dict form of a statistics bundle (sample/trace dropped)."""
    return {
        "format_version": _FORMAT_VERSION,
        "table_name": statistics.table_name,
        "column_name": statistics.column_name,
        "n": statistics.n,
        "histogram": histogram_to_dict(statistics.histogram),
        "density": statistics.density,
        "selfjoin_density": statistics.selfjoin_density,
        "distinct_estimate": statistics.distinct_estimate,
        "method": statistics.method,
        "sample_size": statistics.sample_size,
        "pages_read": statistics.pages_read,
        "converged": statistics.converged,
        "degraded": statistics.degraded,
        "io": dict(statistics.io),
        "build_params": _jsonable_params(statistics.build_params),
    }


def statistics_from_dict(payload: dict) -> ColumnStatistics:
    """Rebuild a bundle serialised by :func:`statistics_to_dict`.

    A missing, wrong-typed, non-finite or fractional field raises
    :class:`~repro.exceptions.ParameterError`.
    """
    if not isinstance(payload, dict):
        raise ParameterError("payload is not a serialised statistics bundle")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ParameterError(
            f"unsupported statistics format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    fields = {**_FIELD_DEFAULTS, **payload}
    values = {
        name: convert(checked_field(fields, name, kind))
        for name, (kind, convert) in _FIELDS.items()
    }
    histogram = histogram_from_dict(payload.get("histogram"))
    if not isinstance(histogram, EquiHeightHistogram):
        raise ParameterError(
            "a statistics bundle's histogram must be equi-height, got "
            f"{type(histogram).__name__}"
        )
    return ColumnStatistics(histogram=histogram, **values)


def statistics_to_json(statistics: ColumnStatistics) -> str:
    """Serialise a statistics bundle to a JSON string."""
    return json.dumps(statistics_to_dict(statistics))


def statistics_from_json(text: str) -> ColumnStatistics:
    """Reconstruct a statistics bundle from :func:`statistics_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid statistics JSON: {exc}") from exc
    return statistics_from_dict(payload)
