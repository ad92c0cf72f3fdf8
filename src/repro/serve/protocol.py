"""Line-delimited JSON protocol spoken by ``repro serve``.

One request or response per line, UTF-8, ``\\n``-terminated.  The same
framing works over a stdin/stdout pipe and a TCP socket, so clients in
any language need only a JSON encoder and ``readline``.

Request::

    {"id": "j1", "op": "fill", "priority": 5, "timeout_s": 30,
     "params": {"layout_path": "a.json", "method": "lin"}}

Responses (job ops get two: an immediate accept/reject, then a terminal
status; introspection ops get exactly one)::

    {"id": "j1", "ok": true,  "status": "accepted"}
    {"id": "j1", "ok": true,  "status": "done", "result": {...}}
    {"id": "j1", "ok": false, "status": "rejected", "error": "queue full"}

Floats survive the round trip bitwise: ``json`` serialises with
``repr``, the shortest representation that parses back to the identical
IEEE-754 double — fill vectors returned as nested lists are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: Ops that enqueue work and get an ack + a terminal response.
JOB_OPS = frozenset({"fill", "eco", "simulate"})

#: Ops answered immediately by the transport thread.
IMMEDIATE_OPS = frozenset({"stats", "models", "cancel", "ping", "shutdown"})

OPS = JOB_OPS | IMMEDIATE_OPS

#: Response statuses that end a request's lifecycle.  ``worker_died``
#: distinguishes "the worker process executing this job crashed" from an
#: ordinary job ``error`` — clients can safely retry a ``worker_died``
#: job (it never completed), whereas an ``error`` reproduces.
TERMINAL_STATUSES = frozenset(
    {"done", "error", "rejected", "cancelled", "timeout", "worker_died"}
)

#: All response statuses (``accepted`` is the job ack).
STATUSES = TERMINAL_STATUSES | {"accepted"}

#: Statuses reported with ``ok: false``.
_FAILURE_STATUSES = frozenset(
    {"error", "rejected", "cancelled", "timeout", "worker_died"}
)


class ProtocolError(ValueError):
    """A line that does not parse into a valid request."""


@dataclass(frozen=True)
class Request:
    """One parsed client request."""

    id: str
    op: str
    params: dict = field(default_factory=dict)
    priority: int = 0
    timeout_s: float | None = None

    def to_wire(self) -> dict:
        """The JSON-compatible dict form (used by the job journal)."""
        wire: dict = {"id": self.id, "op": self.op}
        if self.params:
            wire["params"] = self.params
        if self.priority:
            wire["priority"] = self.priority
        if self.timeout_s is not None:
            wire["timeout_s"] = self.timeout_s
        return wire


def encode(message: dict) -> str:
    """Serialise one protocol message to a single line (no newline)."""
    line = json.dumps(message, separators=(",", ":"), allow_nan=False)
    if "\n" in line:  # impossible for json.dumps output; guard anyway
        raise ProtocolError("encoded message contains a newline")
    return line


def decode(line: str) -> dict:
    """Parse one line into a dict, rejecting non-object payloads."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def parse_request(line: str) -> Request:
    """Decode and validate one request line.

    Raises:
        ProtocolError: malformed JSON, unknown op, bad field types.
    """
    message = decode(line)
    op = message.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    rid = message.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("missing or empty request id")
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {params!r}")
    priority = message.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an integer, got {priority!r}")
    timeout_s = message.get("timeout_s")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool) \
                or timeout_s <= 0:
            raise ProtocolError(
                f"timeout_s must be a positive number, got {timeout_s!r}"
            )
        timeout_s = float(timeout_s)
    return Request(id=rid, op=op, params=params, priority=priority,
                   timeout_s=timeout_s)


def json_safe(value):
    """Recursively replace non-finite floats with ``None``.

    ``encode`` refuses NaN/Infinity (``allow_nan=False``) because they
    are not JSON; rule-based fills legitimately report ``quality: nan``
    (no surrogate), so result payloads are sanitised rather than
    dropped.  Finite floats pass through untouched — bitwise transport
    of fill vectors is unaffected.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def response(rid: str | None, status: str, result: dict | None = None,
             error: str | None = None) -> dict:
    """Build one response message; ``ok`` is derived from ``status``."""
    if status not in STATUSES:
        raise ValueError(f"unknown response status {status!r}")
    message: dict = {
        "id": rid,
        "ok": status not in _FAILURE_STATUSES,
        "status": status,
    }
    if result is not None:
        message["result"] = json_safe(result)
    if error is not None:
        message["error"] = error
    return message
