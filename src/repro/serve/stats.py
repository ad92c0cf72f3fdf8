"""Service introspection: one view over the shared ``repro.obs`` metrics.

Historically this module owned its own counter/histogram/latency
implementations; they now live in :mod:`repro.obs.metrics` (extracted
with two correctness fixes — see that module's docstring: the latency
mean is computed over the same sliding window as the percentiles, with
the lifetime count reported separately as ``count_total``, and the
percentile index uses the banker's-rounding-free nearest-rank formula).
:class:`ServeStats` keeps its PR 3 API — ``incr`` / ``record_batch`` /
``record_latency`` / ``snapshot`` — as a thin facade over one
:class:`~repro.obs.metrics.MetricsRegistry`, so the serve ``stats``
response is simply a stable serialisation of the shared data.

Serialisation contract: ``batch_histogram`` keys are **strings**,
sorted by numeric value (``"2"`` before ``"10"``), so clients can parse
the JSON deterministically regardless of Python dict ordering history.
Everything is O(1) per event and bounded in memory, so a long-lived
server never accumulates unbounded state.
"""

from __future__ import annotations

from ..obs.metrics import (  # re-exported for backwards compatibility
    DEFAULT_WINDOW,
    Histogram,
    LatencyTracker,
    MetricsRegistry,
)

__all__ = ["ServeStats", "LatencyTracker", "Histogram", "MetricsRegistry"]

#: Histogram name of coalesced micro-batch sizes inside the registry.
BATCH_HISTOGRAM = "batch_size"

#: Histogram name of coalesced simulate-job batch sizes.
SIM_BATCH_HISTOGRAM = "sim_batch_size"


class ServeStats:
    """Thread-safe event sink shared by queue, batcher and workers."""

    #: Pipeline stages with latency tracking: time spent waiting in the
    #: queue, executing, and accepted-to-terminal-response overall.
    #: ``turn_wait`` is the part of ``execute`` a thread-mode job spent
    #: waiting for the executor's turn before it computed.
    STAGES = ("queue_wait", "turn_wait", "execute", "total")

    def __init__(self, window: int = DEFAULT_WINDOW,
                 registry: MetricsRegistry | None = None):
        self._registry = registry or MetricsRegistry(window=window)
        for stage in self.STAGES:
            self._registry.ensure_latency(stage)

    @property
    def registry(self) -> MetricsRegistry:
        """The backing shared registry (for obs integration and tests)."""
        return self._registry

    def incr(self, name: str, n: int = 1) -> None:
        self._registry.incr(name, n)

    def record_batch(self, size: int) -> None:
        """One micro-batch of ``size`` coalesced evaluations was flushed."""
        self._registry.observe(BATCH_HISTOGRAM, int(size))

    def record_sim_batch(self, size: int) -> None:
        """One batch of ``size`` coalesced simulate jobs was polished."""
        self._registry.observe(SIM_BATCH_HISTOGRAM, int(size))

    def record_latency(self, stage: str, seconds: float) -> None:
        if stage not in self.STAGES:
            raise KeyError(f"unknown latency stage {stage!r}; "
                           f"expected one of {self.STAGES}")
        self._registry.record_latency(stage, seconds)

    def set_gauge(self, name: str, value: float) -> None:
        """Latest value of a point-in-time quantity (queue depth, ...)."""
        self._registry.set_gauge(name, value)

    def snapshot(self) -> dict:
        shared = self._registry.snapshot()
        snapshot = {
            "counters": shared["counters"],
            "batch_histogram": shared["histograms"].get(BATCH_HISTOGRAM, {}),
            "sim_batch_histogram":
                shared["histograms"].get(SIM_BATCH_HISTOGRAM, {}),
            "latency": {stage: shared["latency"][stage]
                        for stage in self.STAGES
                        if stage in shared["latency"]},
        }
        if "gauges" in shared:
            snapshot["gauges"] = shared["gauges"]
        return snapshot
