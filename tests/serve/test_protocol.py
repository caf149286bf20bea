"""Protocol validation: the declared endpoint table is enforced literally."""

from __future__ import annotations

import json
import math

import pytest

from repro.serve import ENDPOINTS, ProtocolError, validate_request
from repro.serve.protocol import BUILD_PARAMS, OPTIONAL_FIELDS, SHUTDOWN_OP


class TestValidRequests:
    def test_every_endpoint_validates_with_sample_fields(self):
        samples = {str: "name", int: 3, (int, float): 1.5}
        for name, spec in ENDPOINTS.items():
            request = {"op": name}
            for field, types in spec.fields.items():
                request[field] = samples[types]
            op, fields = validate_request(request)
            assert op == name
            assert set(fields) == set(spec.fields)

    def test_optional_params_passed_through(self):
        op, fields = validate_request(
            {"op": "analyze", "table": "t", "column": "x",
             "params": {"k": 32}}
        )
        assert op == "analyze"
        assert fields["params"] == {"k": 32}

    def test_every_build_param_accepted(self):
        samples = {int: 3, str: "cvb", (int, float): 0.25}
        params = {name: samples[types] for name, types in BUILD_PARAMS.items()}
        _, fields = validate_request(
            {"op": "analyze", "table": "t", "column": "x", "params": params}
        )
        assert fields["params"] == params

    def test_optional_params_omittable(self):
        _, fields = validate_request(
            {"op": "analyze", "table": "t", "column": "x"}
        )
        assert "params" not in fields

    def test_int_accepted_where_float_declared(self):
        _, fields = validate_request(
            {"op": "estimate_quantile", "table": "t", "column": "x", "q": 1}
        )
        assert fields["q"] == 1

    def test_watch_cursor_passed_through(self):
        op, fields = validate_request({"op": "watch", "cursor": 3})
        assert op == "watch"
        assert fields["cursor"] == 3

    def test_watch_cursor_omittable(self):
        _, fields = validate_request({"op": "watch"})
        assert "cursor" not in fields


class TestRejection:
    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request(["op", "ping"])

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request({"table": "t"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "drop_table"})

    def test_shutdown_is_not_an_endpoint(self):
        """The transport-level shutdown op bypasses the endpoint table."""
        assert SHUTDOWN_OP not in ENDPOINTS
        with pytest.raises(ProtocolError):
            validate_request({"op": SHUTDOWN_OP})

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="requires field"):
            validate_request({"op": "estimate_range", "table": "t",
                              "column": "x", "lo": 0.0})

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "modify", "table": "t", "column": "x",
                              "rows": "many"})

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "modify", "table": "t", "column": "x",
                              "rows": True})

    def test_wrong_optional_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "analyze", "table": "t", "column": "x",
                              "params": [1, 2]})

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"bogus": 1}, "unknown build parameter"),
            ({"rng": 5}, "unknown build parameter"),
            ({"heapfile": None}, "unknown build parameter"),
            ({"k": "abc"}, "wrong type"),
            ({"k": 2.5}, "wrong type"),
            ({"k": True}, "wrong type"),
            ({"f": "x"}, "wrong type"),
            ({"gamma": None}, "wrong type"),
            ({"method": 1}, "wrong type"),
            ({"f": math.nan}, "must be finite"),
            ({"max_sampled_fraction": math.inf}, "must be finite"),
            ({"f": 10**400}, "beyond the float range"),
            ({"gamma": -(10**400)}, "beyond the float range"),
        ],
    )
    def test_bad_build_params_rejected(self, params, match):
        with pytest.raises(ProtocolError, match=match):
            validate_request({"op": "analyze", "table": "t", "column": "x",
                              "params": params})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unexpected fields"):
            validate_request({"op": "ping", "extra": 1})

    def test_unknown_fields_rejected_on_telemetry_endpoints(self):
        for op in ("stats", "health", "watch"):
            with pytest.raises(ProtocolError, match="unexpected fields"):
                validate_request({"op": op, "extra": 1})

    def test_watch_cursor_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "watch", "cursor": "0"})

    def test_watch_cursor_bool_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_request({"op": "watch", "cursor": True})

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 10**400, -(10**400)]
    )
    @pytest.mark.parametrize(
        "op, field",
        [
            ("estimate_range", "lo"),
            ("estimate_range", "hi"),
            ("estimate_equality", "value"),
            ("estimate_quantile", "q"),
        ],
    )
    def test_non_finite_number_rejected(self, op, field, bad):
        request = {"op": op, "table": "t", "column": "x"}
        request.update({name: 1.0 for name in ENDPOINTS[op].fields
                        if name not in request})
        request[field] = bad
        with pytest.raises(ProtocolError, match="must be finite"):
            validate_request(request)

    def test_integer_fields_take_any_size(self):
        """Only numbers bound for float arithmetic need to fit a float."""
        huge = 10**400
        for request in [
            {"op": "modify", "table": "t", "column": "x", "rows": huge},
            {"op": "watch", "cursor": huge},
            {"op": "analyze", "table": "t", "column": "x",
             "params": {"k": huge}},
        ]:
            validate_request(request)

    def test_non_finite_json_constants_rejected_after_decode(self):
        """``json.loads`` turns ``NaN``/``Infinity`` into floats; they stop here."""
        line = ('{"op": "estimate_range", "table": "t", "column": "x", '
                '"lo": NaN, "hi": Infinity}')
        with pytest.raises(ProtocolError, match="must be finite"):
            validate_request(json.loads(line))


class TestDeclarations:
    def test_optional_fields_only_for_declared_endpoints(self):
        assert set(OPTIONAL_FIELDS) <= set(ENDPOINTS)

    def test_every_endpoint_has_help(self):
        for spec in ENDPOINTS.values():
            assert spec.help.strip()
