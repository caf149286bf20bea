"""Fuzz ``StatsServer.handle``: any decoded JSON line gets an envelope.

Whatever a client sends, ``handle`` returns ``{"ok": <bool>, ...}`` and
never raises, and the envelope encodes as strict JSON (no ``NaN`` or
``Infinity`` can leave in an ``ok: true`` answer).  One strategy throws
arbitrary JSON values at it; the other names a real op, table and column
so that arbitrary field values reach the endpoint code behind the
validator.  Derandomized, so every run tries the same inputs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Table
from repro.serve import ENDPOINTS, StatsServer
from repro.serve.protocol import BUILD_PARAMS, OPTIONAL_FIELDS

#: Numbers at the edges of what ``json.loads`` can produce.
EDGES = [10**400, -10**400, 2**63, 5e-324, 1e-160, 1e308, -1e308, 0, -1]

NUMBERS = st.sampled_from(EDGES) | st.integers() | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
#: A declared field's likely values; any other field gets NUMBERS.
LIKELY = {
    "table": st.just("t"),
    "column": st.just("x"),
    "params": st.dictionaries(
        st.sampled_from(sorted(BUILD_PARAMS)),
        NUMBERS | st.sampled_from(["record", "cvb", "random"]),
        max_size=4,
    ),
}


@st.composite
def endpoint_requests(draw):
    """A request for a real op whose fields mostly hold likely values."""
    op = draw(st.sampled_from(sorted(ENDPOINTS)))
    request = {"op": op}
    for field in [*ENDPOINTS[op].fields, *OPTIONAL_FIELDS.get(op, {})]:
        roll = draw(st.integers(0, 9))
        if roll == 0:
            continue  # a missing field
        values = JSON_VALUES if roll == 1 else LIKELY.get(field, NUMBERS)
        request[field] = draw(values)
    return request


FUZZ = settings(
    max_examples=300, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def server():
    """One server for every example, so builds and refreshes accumulate."""
    return StatsServer(
        {"t": Table("t", {"x": np.arange(2_000)})}, build_params={"k": 8}
    )


def _assert_envelope(response):
    assert isinstance(response, dict), response
    assert isinstance(response["ok"], bool), response
    json.dumps(response, allow_nan=False)


@FUZZ
@given(value=JSON_VALUES)
def test_any_json_value_gets_an_envelope(server, value):
    _assert_envelope(server.handle(value))


@FUZZ
@given(payload=endpoint_requests())
def test_any_field_value_gets_an_envelope(server, payload):
    _assert_envelope(server.handle(payload))
