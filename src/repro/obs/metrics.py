"""Bounded counter / histogram / latency registry.

Extracted from ``repro.serve.stats`` (PR 3) with the two correctness
bugs of that version fixed, so every subsystem shares one implementation
and one set of semantics:

* **Windowed mean** — the original ``LatencyTracker.snapshot`` reported
  a *lifetime* mean next to *sliding-window* percentiles, so a
  long-lived server showed internally inconsistent latency numbers
  (e.g. a p99 far below the mean after a slow warm-up).  ``mean_ms`` is
  now computed over exactly the same sample window as p50/p95/p99; the
  lifetime sample count survives as ``count_total``.
* **Percentile index** — the original nearest-rank index used Python's
  ``round()``, which applies banker's rounding (``round(9.5) == 10``
  but ``round(8.5) == 8``), making adjacent quantiles grab
  inconsistent ranks.  The tracker now uses the textbook nearest-rank
  formula ``ceil(q / 100 * n)`` (1-indexed), which involves no rounding
  ties at all: for 100 samples, p50 is the 50th smallest, p99 the 99th.

Everything here is O(1) per event, bounded in memory, and thread-safe —
the registry takes one lock per operation, and trackers created through
a registry rely on that lock (standalone use is single-thread safe by
virtue of CPython atomicity for the deque append; guard externally for
concurrent writers).
"""

from __future__ import annotations

import math
import threading
from collections import Counter as _Counter
from collections import deque

#: Default sliding-window length for latency percentiles.
DEFAULT_WINDOW = 2048

#: Default cap on distinct metric names per registry.
DEFAULT_MAX_METRICS = 1024

#: Default cap on distinct histogram keys.
DEFAULT_MAX_BUCKETS = 512

#: Catch-all histogram bucket once ``max_buckets`` distinct keys exist.
OVERFLOW_BUCKET = "overflow"


def nearest_rank_index(q: float, n: int) -> int:
    """0-based nearest-rank index of the ``q``-th percentile in ``n``
    sorted samples: ``ceil(q / 100 * n) - 1``, clamped to the window.

    Free of banker's rounding (no ``round()``), monotone in ``q``, and
    exact on round counts: ``q=50, n=100`` -> index 49 (the 50th
    smallest sample).
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    return min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))


class LatencyTracker:
    """Sliding-window latency statistics for one pipeline stage.

    ``snapshot`` reports, in milliseconds, the mean and the p50/p95/p99
    over the *same* window of the most recent ``window`` samples, plus
    ``count`` (samples currently in the window) and ``count_total``
    (lifetime samples — the only unbounded quantity, an integer).
    """

    __slots__ = ("_samples", "_count_total")

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be positive")
        self._samples: deque[float] = deque(maxlen=window)
        self._count_total = 0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._count_total += 1

    def snapshot(self) -> dict:
        """Windowed mean + percentiles (ms); lifetime ``count_total``."""
        out: dict = {"count": len(self._samples),
                     "count_total": self._count_total}
        if self._samples:
            ordered = sorted(self._samples)
            n = len(ordered)
            out["mean_ms"] = round(sum(ordered) / n * 1e3, 3)
            for q in (50, 95, 99):
                idx = nearest_rank_index(q, n)
                out[f"p{q}_ms"] = round(ordered[idx] * 1e3, 3)
        return out


class Histogram:
    """Bounded counting histogram with explicit, stable serialisation.

    Keys are recorded as given (typically integers, e.g. micro-batch
    sizes).  ``snapshot`` *always* returns string keys sorted by their
    numeric value, so the JSON any client receives is deterministic:
    ``{"2": 10, "10": 3}`` — never a mix of int and str keys, never
    lexicographic ``"10" < "2"`` surprises.  Once ``max_buckets``
    distinct keys exist, further new keys aggregate under
    ``"overflow"`` to bound memory.
    """

    __slots__ = ("_buckets", "_max_buckets")

    def __init__(self, max_buckets: int = DEFAULT_MAX_BUCKETS):
        if max_buckets < 1:
            raise ValueError("max_buckets must be positive")
        self._buckets: _Counter = _Counter()
        self._max_buckets = max_buckets

    def record(self, key, n: int = 1) -> None:
        if key not in self._buckets and len(self._buckets) >= self._max_buckets:
            key = OVERFLOW_BUCKET
        self._buckets[key] += n

    def snapshot(self) -> dict:
        def sort_key(item):
            key = item[0]
            if isinstance(key, bool):  # bool is an int subclass; keep last
                return (1, str(key))
            if isinstance(key, (int, float)):
                return (0, key)
            return (1, str(key))

        return {str(key): count
                for key, count in sorted(self._buckets.items(), key=sort_key)}


class MetricsRegistry:
    """Thread-safe, bounded get-or-create store of named metrics.

    One registry instance backs one subsystem view (the serve stats
    endpoint owns one; ``repro.obs`` keeps a global one for profiling).
    The name space is capped at ``max_metrics`` distinct names; events
    against names beyond the cap are counted in the ``dropped_metrics``
    counter instead of growing memory forever.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 max_metrics: int = DEFAULT_MAX_METRICS):
        self._lock = threading.Lock()
        self._window = window
        self._max_metrics = max_metrics
        self._counters: _Counter = _Counter()
        self._histograms: dict[str, Histogram] = {}
        self._latencies: dict[str, LatencyTracker] = {}
        self._gauges: dict[str, float] = {}
        self._dropped = 0

    def _room_for(self, name: str, table: dict) -> bool:
        """Lock held.  True if ``name`` exists or may be created."""
        if name in table:
            return True
        total = (len(self._counters) + len(self._histograms)
                 + len(self._latencies) + len(self._gauges))
        if total >= self._max_metrics:
            self._dropped += 1
            return False
        return True

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            if self._room_for(name, self._counters):
                self._counters[name] += n

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time quantity (queue
        depth, ...).  Last write wins —
        gauges report state, not events, so there is no windowing."""
        with self._lock:
            if self._room_for(name, self._gauges):
                self._gauges[name] = value

    def observe(self, name: str, key, n: int = 1) -> None:
        """Record ``key`` into the histogram called ``name``."""
        with self._lock:
            if not self._room_for(name, self._histograms):
                return
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.record(key, n)

    def record_latency(self, name: str, seconds: float) -> None:
        with self._lock:
            tracker = self._latencies.get(name)
            if tracker is None:
                if not self._room_for(name, self._latencies):
                    return
                tracker = self._latencies[name] = LatencyTracker(self._window)
            tracker.record(seconds)

    def ensure_latency(self, name: str) -> None:
        """Pre-create a latency tracker so it appears in snapshots even
        before the first sample (the serve stats contract)."""
        with self._lock:
            if name not in self._latencies \
                    and self._room_for(name, self._latencies):
                self._latencies[name] = LatencyTracker(self._window)

    def snapshot(self) -> dict:
        with self._lock:
            out = {
                "counters": dict(self._counters),
                "histograms": {name: histogram.snapshot()
                               for name, histogram in self._histograms.items()},
                "latency": {name: tracker.snapshot()
                            for name, tracker in self._latencies.items()},
            }
            if self._gauges:
                out["gauges"] = dict(self._gauges)
            if self._dropped:
                out["dropped_metrics"] = self._dropped
            return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._latencies.clear()
            self._gauges.clear()
            self._dropped = 0


# ----------------------------------------------------------------------
# Global registry (profiling hooks record here when obs is enabled)
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry used by profiling hooks."""
    return _registry


def reset() -> None:
    """Clear the global registry (test isolation)."""
    _registry.reset()
