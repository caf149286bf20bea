"""Histogram (de)serialization and catalog-page budgeting.

SQL Server 7.0 stores a column's histogram inside a single 8 KB catalog
page — which is why the paper's experiments default to 600 bins for integer
columns (Section 7.1, implementation note 5).  This module provides:

- loss-free dict/JSON round-trips for every histogram type, so statistics
  can be persisted and shipped;
- :func:`max_bins_for_page`, the bins-per-catalog-page budget, reproducing
  the "600 bins" figure;
- :func:`fit_to_page`, which re-buckets a histogram that would overflow its
  catalog page.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from ..exceptions import ParameterError
from .compressed import CompressedHistogram, SingletonBucket
from .equiwidth import EquiWidthHistogram
from .histogram import EquiHeightHistogram

__all__ = [
    "histogram_to_dict",
    "histogram_from_dict",
    "histogram_to_json",
    "histogram_from_json",
    "max_bins_for_page",
    "fit_to_page",
]

#: Catalog page geometry (matches the storage simulator's default page).
_PAGE_BYTES = 8192
_PAGE_HEADER = 96

#: Per-bin storage: separator value, bucket count, equal-to-boundary count,
#: plus one byte of per-step tagging/alignment.
_BYTES_PER_BIN = {"int32": 13, "int64": 21, "float64": 21}


def max_bins_for_page(value_type: str = "int32") -> int:
    """Histogram bins that fit one 8 KB catalog page.

    For 4-byte integer separators with 4-byte counts this reproduces the
    paper's figure of ~600 bins per page.
    """
    if value_type not in _BYTES_PER_BIN:
        raise ParameterError(
            f"value_type must be one of {sorted(_BYTES_PER_BIN)}, "
            f"got {value_type!r}"
        )
    return (_PAGE_BYTES - _PAGE_HEADER) // _BYTES_PER_BIN[value_type]


def fit_to_page(
    histogram: EquiHeightHistogram,
    sorted_values: np.ndarray,
    value_type: str = "int32",
) -> EquiHeightHistogram:
    """Re-bucket *histogram* so it fits one catalog page.

    Returns the histogram unchanged when it already fits; otherwise builds a
    fresh equi-height histogram over *sorted_values* (the sample the
    original summarised) at the page's bin budget.
    """
    budget = max_bins_for_page(value_type)
    if histogram.k <= budget:
        return histogram
    return EquiHeightHistogram.from_sorted_values(sorted_values, budget)


# ----------------------------------------------------------------------
# Dict round-trips
# ----------------------------------------------------------------------

#: How :func:`checked_field` names each kind it accepts in its errors.
_KIND_NAMES = {
    numbers.Real: "a number",
    numbers.Integral: "an integer",
    str: "a string",
    bool: "true or false",
    dict: "an object",
}


def checked_field(payload: dict, name: str, kind: type):
    """``payload[name]``, rejected with :class:`ParameterError` unless it
    is a *kind* (``numbers.Real``, ``numbers.Integral``, ``str``, ``bool``
    or ``dict``).

    A bool is never a number here, and a real number must be finite: the
    ``from_dict`` readers take saved statistics from outside the program,
    and a wrong-typed or NaN field would otherwise be coerced into a
    silently wrong answer.
    """
    if not isinstance(payload, dict) or name not in payload:
        raise ParameterError(f"serialised field {name!r} is missing")
    value = payload[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ParameterError(
            f"serialised field {name!r} must be {_KIND_NAMES[kind]}, "
            f"got {value!r}"
        )
    if kind is numbers.Real and not math.isfinite(value):
        raise ParameterError(f"serialised field {name!r} must be finite")
    return value


def _numbers(payload: dict, name: str) -> np.ndarray:
    """``payload[name]``, which must be a flat list of numbers, as an array."""
    values = payload.get(name)
    try:
        array = np.asarray(values) if isinstance(values, list) else None
    except ValueError:  # a ragged nested list
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ParameterError(
            f"serialised field {name!r} must be a list of numbers"
        )
    return array


def histogram_to_dict(histogram) -> dict:
    """Serialise any supported histogram to a JSON-safe dict."""
    if isinstance(histogram, EquiHeightHistogram):
        return {
            "type": "equi_height",
            "separators": histogram.separators.tolist(),
            "counts": histogram.counts.tolist(),
            "eq_counts": histogram.eq_counts.tolist(),
            "min_value": histogram.min_value,
            "max_value": histogram.max_value,
        }
    if isinstance(histogram, EquiWidthHistogram):
        return {
            "type": "equi_width",
            "edges": histogram.edges.tolist(),
            "counts": histogram.counts.tolist(),
        }
    if isinstance(histogram, CompressedHistogram):
        return {
            "type": "compressed",
            "singletons": [
                {"value": s.value, "count": s.count}
                for s in histogram.singletons
            ],
            "remainder": (
                histogram_to_dict(histogram.remainder)
                if histogram.remainder is not None
                else None
            ),
            "total": histogram.total,
        }
    raise ParameterError(
        f"cannot serialise histogram of type {type(histogram).__name__}"
    )


def histogram_from_dict(payload: dict):
    """Rebuild a histogram serialised by :func:`histogram_to_dict`."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ParameterError("payload is not a serialised histogram")
    kind = payload["type"]
    if kind == "equi_height":
        return EquiHeightHistogram(
            _numbers(payload, "separators"),
            _numbers(payload, "counts"),
            checked_field(payload, "min_value", numbers.Real),
            checked_field(payload, "max_value", numbers.Real),
            eq_counts=_numbers(payload, "eq_counts"),
        )
    if kind == "equi_width":
        return EquiWidthHistogram(
            _numbers(payload, "edges"), _numbers(payload, "counts")
        )
    if kind == "compressed":
        singletons = payload.get("singletons")
        if not isinstance(singletons, list):
            raise ParameterError("serialised field 'singletons' must be a list")
        remainder = payload.get("remainder")
        return CompressedHistogram(
            [
                SingletonBucket(
                    float(checked_field(s, "value", numbers.Real)),
                    int(checked_field(s, "count", numbers.Integral)),
                )
                for s in singletons
            ],
            histogram_from_dict(remainder) if remainder is not None else None,
            total=int(checked_field(payload, "total", numbers.Integral)),
        )
    raise ParameterError(f"unknown serialised histogram type {kind!r}")


def histogram_to_json(histogram) -> str:
    """JSON string form of :func:`histogram_to_dict`."""
    return json.dumps(histogram_to_dict(histogram))


def histogram_from_json(text: str):
    """Inverse of :func:`histogram_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid histogram JSON: {exc}") from exc
    return histogram_from_dict(payload)
