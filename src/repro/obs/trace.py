"""Monotonic-clock span tracer with nested contexts and JSONL export.

The tracer is the event backbone of :mod:`repro.obs`: instrumented code
opens *spans* (named, timed, attributed regions that nest per thread)
and emits *events* (instant records).  Everything is measured with
``time.perf_counter()`` — the monotonic high-resolution clock — never
wall-clock time, so spans are immune to NTP steps and DST.

Design constraints (see DESIGN.md "Observability"):

* **Zero-cost when disabled.**  The module keeps one global
  ``_active`` tracer reference.  When it is ``None`` (the default),
  :func:`span` returns a shared no-op singleton and :func:`event`
  returns immediately — one attribute load and one ``is None`` check on
  the hot path, no allocation, no arithmetic.  Instrumentation therefore
  cannot perturb numerical results: enabled or not, the traced code runs
  the identical FLOPs in the identical order.
* **Thread-safe.**  Serve workers and the micro-batcher record
  concurrently.  Span nesting state lives in ``threading.local`` (each
  thread has its own open-span stack); the finished-record list and the
  id counter are guarded by one lock held only for an append.
* **Bounded.**  A long-lived server must not accumulate unbounded
  state: finished records are capped (``max_records``); overflow is
  dropped and counted, and the drop count lands in the exported
  metadata so a truncated trace is self-describing.

JSONL schema (``repro-trace/1``) — one object per line:

* line 1 — ``{"type": "meta", "schema": "repro-trace/1",
  "clock": "perf_counter", "version": <repro version>,
  "spans": N, "events": M, "dropped": D}``
* spans — ``{"type": "span", "name": str, "cat": str, "id": int,
  "parent": int | null, "thread": int, "t0_us": int, "dur_us": int,
  "attrs": {...}}``
* events — same minus ``dur_us``.

``t0_us`` is microseconds since the tracer was created (a relative
monotonic origin — traces from different processes are not comparable).
``parent`` points at the enclosing span's ``id``; because spans are
recorded on *exit*, a parent's record appears after its children.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Iterator

TRACE_SCHEMA = "repro-trace/1"

#: Default cap on retained finished records (spans + events).
DEFAULT_MAX_RECORDS = 100_000


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """One open region; records itself to the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "attrs", "span_id", "parent_id",
                 "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dur = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer._record(
            "span", self.name, self.cat, self.span_id, self.parent_id,
            self._t0, dur, self.attrs,
        )
        return False


class Tracer:
    """Collects finished spans and events, thread-safely and bounded."""

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS):
        if max_records < 1:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._dropped = 0
        self._ids = 0
        self._local = threading.local()

    # -- internal plumbing -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _record(self, kind: str, name: str, cat: str, span_id: int,
                parent_id: int | None, t0: float, dur: float | None,
                attrs: dict) -> None:
        record = {
            "type": kind,
            "name": name,
            "cat": cat,
            "id": span_id,
            "parent": parent_id,
            "thread": threading.get_ident(),
            "t0_us": int((t0 - self._origin) * 1e6),
        }
        if dur is not None:
            record["dur_us"] = int(dur * 1e6)
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            if len(self._records) >= self.max_records:
                self._dropped += 1
            else:
                self._records.append(record)

    # -- recording API -----------------------------------------------------
    def span(self, name: str, cat: str = "app", **attrs) -> Span:
        """An open span context manager (records itself on exit)."""
        return Span(self, name, cat, attrs)

    def event(self, name: str, cat: str = "app", **attrs) -> None:
        """An instant record, parented to the enclosing open span."""
        stack = self._stack()
        self._record("event", name, cat, self._next_id(),
                     stack[-1] if stack else None,
                     time.perf_counter(), None, attrs)

    def record_span(self, name: str, cat: str, dur_s: float,
                    t0_s: float | None = None, **attrs) -> None:
        """Record a pre-measured span (e.g. an accumulated stage total)."""
        stack = self._stack()
        self._record("span", name, cat, self._next_id(),
                     stack[-1] if stack else None,
                     time.perf_counter() if t0_s is None else t0_s,
                     dur_s, attrs)

    # -- inspection / export -----------------------------------------------
    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def records(self, kind: str | None = None) -> list[dict]:
        """A snapshot copy of the finished records, in completion order."""
        with self._lock:
            records = list(self._records)
        if kind is not None:
            records = [r for r in records if r["type"] == kind]
        return records

    def meta(self) -> dict:
        from .. import __version__
        with self._lock:
            spans = sum(1 for r in self._records if r["type"] == "span")
            events = len(self._records) - spans
            dropped = self._dropped
        return {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "clock": "perf_counter",
            "version": __version__,
            "spans": spans,
            "events": events,
            "dropped": dropped,
        }

    def iter_jsonl(self) -> Iterator[str]:
        yield json.dumps(self.meta(), sort_keys=True)
        for record in self.records():
            yield json.dumps(record, sort_keys=True, default=_json_default)

    def write_jsonl(self, path) -> None:
        """Export the trace: one meta line, then one line per record."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.iter_jsonl():
                fh.write(line + "\n")


def _json_default(value):
    """Numpy scalars appear in attrs; coerce instead of crashing."""
    import numpy as np

    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


# ----------------------------------------------------------------------
# Global activation (the module-level no-op fast path)
# ----------------------------------------------------------------------
_active: Tracer | None = None
_activation_lock = threading.Lock()


def active() -> Tracer | None:
    """The currently installed tracer, or ``None`` when disabled."""
    return _active


def activate(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the global tracer."""
    global _active
    with _activation_lock:
        _active = tracer if tracer is not None else Tracer()
        return _active


def deactivate() -> Tracer | None:
    """Remove the global tracer; returns the one that was active."""
    global _active
    with _activation_lock:
        tracer, _active = _active, None
        return tracer


class _Capture:
    """Context manager installing a tracer and restoring the previous one."""

    def __init__(self, tracer: Tracer | None, path):
        self._tracer = tracer if tracer is not None else Tracer()
        self._path = path
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _active
        with _activation_lock:
            self._previous = _active
            _active = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> bool:
        global _active
        with _activation_lock:
            _active = self._previous
        if self._path is not None:
            self._tracer.write_jsonl(self._path)
        return False


def capture(path=None, tracer: Tracer | None = None) -> _Capture:
    """``with capture("t.jsonl") as tracer:`` — scoped tracing.

    Restores whatever tracer (or ``None``) was active before, so nested
    captures and test isolation behave; writes the JSONL on exit when a
    path is given.
    """
    return _Capture(tracer, path)


# ----------------------------------------------------------------------
# Hot-path helpers: the only calls instrumented code should make
# ----------------------------------------------------------------------
def span(name: str, cat: str = "app", **attrs):
    """A span against the global tracer, or the shared no-op when off."""
    tracer = _active
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, cat, **attrs)


def event(name: str, cat: str = "app", **attrs) -> None:
    """An event against the global tracer; no-op when tracing is off."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, cat, **attrs)


# ----------------------------------------------------------------------
# Stage accumulation: many tiny measurements, few records
# ----------------------------------------------------------------------
class _NoopStages:
    """Disabled-path stage timer: every method is a cheap no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopStages":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def measure(self, stage: str) -> _NoopSpan:
        return NOOP_SPAN

    def set(self, **attrs) -> "_NoopStages":
        return self


NOOP_STAGES = _NoopStages()


class _StageMeasure:
    """Reusable context accumulating one stage's total duration."""

    __slots__ = ("totals", "counts", "stage", "_t0")

    def __init__(self, totals: dict, counts: dict, stage: str):
        self.totals = totals
        self.counts = counts
        self.stage = stage
        self._t0 = 0.0

    def __enter__(self) -> "_StageMeasure":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.totals[self.stage] += time.perf_counter() - self._t0
        self.counts[self.stage] += 1
        return False


class StageTimer:
    """Accumulates named sub-stage durations inside one parent span.

    Tight loops (the CMP polish loop runs its three stages hundreds of
    times) would flood the trace with per-iteration spans.  A
    ``StageTimer`` instead accumulates per-stage totals and, when the
    parent scope closes, records the parent span plus **one** child span
    per stage carrying the accumulated duration and call count.
    """

    def __init__(self, tracer: Tracer, name: str, cat: str, attrs: dict):
        self._tracer = tracer
        self._span = Span(tracer, name, cat, attrs)
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._measures: dict[str, _StageMeasure] = {}

    def __enter__(self) -> "StageTimer":
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        for stage, total in self._totals.items():
            self._tracer._record(
                "span", f"{self._span.name}.{stage}", self._span.cat,
                self._tracer._next_id(), self._span.span_id,
                time.perf_counter(), total,
                {"calls": self._counts[stage]},
            )
        return self._span.__exit__(*exc)

    def measure(self, stage: str) -> _StageMeasure:
        measure = self._measures.get(stage)
        if measure is None:
            self._totals[stage] = 0.0
            self._counts[stage] = 0
            measure = _StageMeasure(self._totals, self._counts, stage)
            self._measures[stage] = measure
        return measure

    def set(self, **attrs) -> "StageTimer":
        self._span.set(**attrs)
        return self


def stages(name: str, cat: str = "app", **attrs):
    """A :class:`StageTimer` against the global tracer, or the no-op."""
    tracer = _active
    if tracer is None:
        return NOOP_STAGES
    return StageTimer(tracer, name, cat, attrs)


# ----------------------------------------------------------------------
# Schema validation (used by tests and the CI trace smoke step)
# ----------------------------------------------------------------------
_REQUIRED_SPAN_KEYS = ("type", "name", "cat", "id", "parent", "thread",
                       "t0_us", "dur_us")
_REQUIRED_EVENT_KEYS = ("type", "name", "cat", "id", "parent", "thread",
                        "t0_us")


def validate_trace_lines(lines) -> list[dict]:
    """Validate JSONL trace lines against the ``repro-trace/1`` schema.

    Returns the parsed records (meta line first).  Raises ``ValueError``
    with a line-numbered message on the first violation.
    """
    records: list[dict] = []
    span_ids: set[int] = set()
    parents: list[tuple[int, int]] = []
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise ValueError(f"trace line {number}: not valid JSON: {exc}")
        if not isinstance(record, dict):
            raise ValueError(f"trace line {number}: expected an object")
        if number == 1:
            if record.get("type") != "meta":
                raise ValueError("trace line 1: expected the meta record")
            if record.get("schema") != TRACE_SCHEMA:
                raise ValueError(
                    f"trace line 1: schema {record.get('schema')!r} != "
                    f"{TRACE_SCHEMA!r}")
            records.append(record)
            continue
        kind = record.get("type")
        if kind == "span":
            required = _REQUIRED_SPAN_KEYS
        elif kind == "event":
            required = _REQUIRED_EVENT_KEYS
        else:
            raise ValueError(f"trace line {number}: unknown type {kind!r}")
        for key in required:
            if key not in record:
                raise ValueError(
                    f"trace line {number}: {kind} record missing {key!r}")
        for key in ("id", "thread", "t0_us"):
            if not isinstance(record[key], int):
                raise ValueError(
                    f"trace line {number}: {key} must be an integer")
        if kind == "span":
            if not isinstance(record["dur_us"], int) or record["dur_us"] < 0:
                raise ValueError(
                    f"trace line {number}: dur_us must be a non-negative "
                    f"integer")
            span_ids.add(record["id"])
        if record["parent"] is not None:
            if not isinstance(record["parent"], int):
                raise ValueError(
                    f"trace line {number}: parent must be an integer or null")
            parents.append((number, record["parent"]))
        if not isinstance(record["name"], str) or not record["name"]:
            raise ValueError(
                f"trace line {number}: name must be a non-empty string")
        if not isinstance(record.get("cat"), str):
            raise ValueError(f"trace line {number}: cat must be a string")
        records.append(record)
    if not records:
        raise ValueError("empty trace: missing meta line")
    for number, parent in parents:
        if parent not in span_ids:
            raise ValueError(
                f"trace line {number}: parent {parent} is not a span id")
    return records


def validate_trace_path(path) -> list[dict]:
    """Validate a JSONL trace file; see :func:`validate_trace_lines`."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_trace_lines(fh)
