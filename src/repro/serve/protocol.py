"""The served request/response surface: declared endpoints + validation.

Requests and responses are JSON objects (one per line over the TCP
transport).  A request names its endpoint in ``op`` plus the endpoint's
declared fields; a response is::

    {"ok": true,  "op": <endpoint>, "result": <endpoint-specific object>}
    {"ok": false, "op": <endpoint>, "error": <message>, "code": <type>}

The endpoint table below is the single source of truth: the server
dispatches from it, the ``repro_serve_requests_total{endpoint=...}``
metric label set mirrors it, and ``docs/SERVING.md`` is diffed against it
by ``tests/serve/test_docs.py`` — an endpoint cannot be added, renamed or
re-typed without the doc (and this docstring's schema) moving in lockstep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ..exceptions import ReproError

__all__ = [
    "ProtocolError",
    "EndpointSpec",
    "ENDPOINTS",
    "SHUTDOWN_OP",
    "validate_request",
]


class ProtocolError(ReproError):
    """A malformed request: unknown op, missing field, wrong type, or a
    non-finite number."""


@dataclass(frozen=True)
class EndpointSpec:
    """Declaration of one endpoint: name, required fields, and meaning.

    ``fields`` maps field name to the accepted Python types; every listed
    field is required (the ``params`` field of ``analyze`` is the one
    optional field, declared separately).
    """

    name: str
    fields: dict
    help: str


_NUMERIC = (int, float)
_FLOAT_MAX = sys.float_info.max

#: Optional-field declarations, keyed by endpoint name.
OPTIONAL_FIELDS: dict[str, dict] = {
    "analyze": {"params": dict},
    "watch": {"cursor": int},
}

#: The build parameters an ``analyze`` request may set in ``params``, and
#: their accepted types; they reach ``StatisticsManager.analyze`` as
#: keyword arguments.
BUILD_PARAMS: dict[str, object] = {
    "k": int,
    "record_sample_size": int,
    "min_validation_tuples": int,
    "f": _NUMERIC,
    "gamma": _NUMERIC,
    "max_sampled_fraction": _NUMERIC,
    "method": str,
    "layout": str,
    "validation": str,
    "metric": str,
}

#: Every request endpoint the server answers, keyed by op name.
ENDPOINTS: dict[str, EndpointSpec] = {
    spec.name: spec
    for spec in [
        EndpointSpec(
            "ping", {},
            "Liveness probe; returns \"pong\".",
        ),
        EndpointSpec(
            "status", {},
            "Server snapshot: tables served, cache and admission counters, "
            "request totals.",
        ),
        EndpointSpec(
            "analyze", {"table": str, "column": str},
            "Build (or rebuild) statistics for one column via the "
            "admission-controlled ANALYZE path; optional `params` sets "
            "declared build parameters (k, f, gamma, method, ...; see "
            "BUILD_PARAMS).",
        ),
        EndpointSpec(
            "estimate_range", {"table": str, "column": str,
                               "lo": _NUMERIC, "hi": _NUMERIC},
            "Estimated row count in the closed range [lo, hi].",
        ),
        EndpointSpec(
            "estimate_equality", {"table": str, "column": str,
                                  "value": _NUMERIC},
            "Estimated row count equal to `value` (self-join density "
            "estimator).",
        ),
        EndpointSpec(
            "estimate_quantile", {"table": str, "column": str,
                                  "q": _NUMERIC},
            "Estimated column value at quantile q in [0, 1].",
        ),
        EndpointSpec(
            "estimate_distinct", {"table": str, "column": str},
            "Estimated number of distinct values (GEE, as built).",
        ),
        EndpointSpec(
            "modify", {"table": str, "column": str, "rows": int},
            "Report `rows` modified rows, feeding the staleness policy.",
        ),
        EndpointSpec(
            "stats", {},
            "Telemetry snapshot, split into a `logical` section "
            "(interleaving-invariant counters, series totals, error-rate "
            "SLOs) and a `wall` section (latency sketch quantiles, "
            "windows, latency SLOs, shift verdict).",
        ),
        EndpointSpec(
            "health", {},
            "Liveness + objective verdict: `ok` until a declared SLO "
            "has burned for `burn_windows` consecutive evaluations, "
            "then `degraded`.",
        ),
        EndpointSpec(
            "watch", {},
            "Incremental stats delta: telemetry windows with index >= "
            "the optional `cursor`, plus the next cursor to poll from "
            "(long-poll-free tailing over the same JSON-lines "
            "transport).",
        ),
    ]
}

#: Transport-level op: asks the TCP server to stop accepting and exit its
#: serve loop.  Not a statistics request — it bypasses the endpoint table
#: and the request metrics (documented in docs/SERVING.md).
SHUTDOWN_OP = "shutdown"


def validate_request(request: object) -> tuple[str, dict]:
    """Check *request* against the endpoint table; return ``(op, fields)``.

    ``fields`` holds exactly the declared (required + present optional)
    fields, so handlers can unpack without re-validating.  Raises
    :class:`ProtocolError` on any malformed input — the server maps that
    to an ``ok: false`` response rather than a dropped connection.
    """
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the string field 'op'")
    spec = ENDPOINTS.get(op)
    if spec is None:
        known = ", ".join(sorted(ENDPOINTS))
        raise ProtocolError(f"unknown op {op!r}; expected one of: {known}")
    fields: dict = {}
    for field, types in spec.fields.items():
        if field not in request:
            raise ProtocolError(f"op {op!r} requires field {field!r}")
        fields[field] = _checked(op, field, request[field], types)
    for field, types in OPTIONAL_FIELDS.get(op, {}).items():
        if field in request:
            fields[field] = _checked(op, field, request[field], types)
    unknown = sorted(
        set(request) - {"op"} - set(spec.fields)
        - set(OPTIONAL_FIELDS.get(op, {}))
    )
    if unknown:
        raise ProtocolError(
            f"op {op!r} got unexpected fields: {', '.join(unknown)}"
        )
    for name, value in fields.get("params", {}).items():
        if name not in BUILD_PARAMS:
            known = ", ".join(sorted(BUILD_PARAMS))
            raise ProtocolError(
                f"op {op!r} got unknown build parameter {name!r}; "
                f"expected one of: {known}"
            )
        _checked(op, f"params.{name}", value, BUILD_PARAMS[name])
    return op, fields


def _checked(op: str, field: str, value: object, types) -> object:
    """*value* if it has a declared type (never bool) and is finite.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; a non-finite bound
    would otherwise flow into the estimators and come back as a plausible
    row count.  It also returns integers of any size, and a numeric field
    must hold one that converts to a float.
    """
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"field {field!r} of op {op!r} has the wrong type "
            f"({type(value).__name__})"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ProtocolError(
            f"field {field!r} of op {op!r} must be finite, got {value!r}"
        )
    if (types is _NUMERIC and isinstance(value, int)
            and abs(value) > _FLOAT_MAX):
        raise ProtocolError(
            f"field {field!r} of op {op!r} must be finite, got an integer "
            "beyond the float range"
        )
    return value
