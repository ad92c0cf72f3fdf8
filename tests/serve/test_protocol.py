"""Tests for the line-JSON protocol (framing, validation, float exactness)."""

import math

import numpy as np
import pytest

from repro.serve import ProtocolError, decode, encode, parse_request, response
from repro.serve.protocol import json_safe


class TestRoundTrip:
    def test_request_round_trip(self):
        request = parse_request(encode({
            "id": "j1", "op": "fill", "priority": 5, "timeout_s": 2.5,
            "params": {"layout_path": "a.json", "method": "lin"},
        }))
        assert request.id == "j1"
        assert request.op == "fill"
        assert request.priority == 5
        assert request.timeout_s == 2.5
        assert request.params["method"] == "lin"
        assert parse_request(encode(request.to_wire())) == request

    def test_floats_survive_bitwise(self):
        """json repr round-trips IEEE-754 doubles exactly — the basis of
        exact fill transport through ``return_fill``."""
        rng = np.random.default_rng(0)
        fill = rng.uniform(0.0, 1e6, size=(3, 8, 8))
        fill[0, 0, 0] = 0.1 + 0.2  # classic non-representable sum
        wire = decode(encode({"id": "x", "fill": fill.tolist()}))
        back = np.array(wire["fill"])
        assert np.array_equal(back, fill)

    def test_encode_is_single_line(self):
        assert "\n" not in encode({"id": "a", "text": "two\nlines"})


class TestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(encode({"id": "j1", "op": "explode"}))

    @pytest.mark.parametrize("op", ["swap", "lifecycle"])
    def test_retired_op_rejected(self, op):
        """Older servers answered these ops; this one has neither."""
        from repro.serve import FillServer, ServeConfig

        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(encode({"id": "j1", "op": op}))
        server = FillServer(serve_config=ServeConfig(workers=1,
                                                     worker_mode="thread"))
        replies = []
        server.handle_line(encode({"id": "j1", "op": op,
                                   "params": {"model": "m"}}),
                           replies.append)
        server.shutdown(timeout=5.0)
        assert [reply["status"] for reply in replies] == ["error"]
        assert "unknown op" in replies[0]["error"]

    def test_missing_id_rejected(self):
        with pytest.raises(ProtocolError, match="request id"):
            parse_request(encode({"op": "ping"}))

    @pytest.mark.parametrize("line", ["not json", "[1,2]", '"str"'])
    def test_non_object_rejected(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_bad_priority_rejected(self):
        with pytest.raises(ProtocolError, match="priority"):
            parse_request(encode({"id": "j", "op": "ping", "priority": "hi"}))

    def test_bad_timeout_rejected(self):
        with pytest.raises(ProtocolError, match="timeout_s"):
            parse_request(encode({"id": "j", "op": "ping", "timeout_s": -1}))


class TestResponse:
    def test_ok_derivation(self):
        assert response("j", "done")["ok"] is True
        assert response("j", "accepted")["ok"] is True
        for status in ("error", "rejected", "cancelled", "timeout"):
            assert response("j", status)["ok"] is False

    def test_unknown_status_raises(self):
        with pytest.raises(ValueError):
            response("j", "exploded")

    def test_non_finite_floats_sanitised(self):
        """NaN quality (rule-based fills) must still encode: allow_nan is
        off, so ``response`` maps non-finite floats to null."""
        message = response("j", "done", result={
            "quality": math.nan, "bad": [math.inf, 1.5],
            "nested": {"x": -math.inf},
        })
        assert message["result"]["quality"] is None
        assert message["result"]["bad"] == [None, 1.5]
        assert message["result"]["nested"]["x"] is None
        encode(message)  # must not raise

    def test_json_safe_keeps_finite_values(self):
        value = {"a": 1.5, "b": [2, "s", 0.1 + 0.2], "c": True}
        assert json_safe(value) == value
