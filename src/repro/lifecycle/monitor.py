"""Drift monitor: shadow simulation + windowed residual statistics.

The surrogate lifecycle's sensing half.  On a sampled fraction of served
fills (``ServeConfig.shadow_sample_rate``), the :class:`ShadowExecutor`
re-evaluates the surrogate's chosen fill with the *real* CMP simulator
on a low-priority background thread and emits a :class:`ResidualRecord`
(height RMSE / max-abs between the surrogate's predicted post-CMP
heights and the simulator's) as ``lifecycle.residual`` metrics and
spans.  The :class:`DriftWindow` consumes the records, keeps a sliding
window per model, and trips — once, with hysteresis — when at least
``trip_count`` of the last ``window`` residuals exceed the error bound,
so a single outlier layout cannot start a retrain storm.

Records whose residual exceeds the bound carry an
:class:`OffenderSample` — the layout, the served fill, and the
simulator's heights — which doubles as the retrain augmentation source
and the held-out validation pair (the simulator work is already paid).
Everything has a wire form (plain JSON lists) so forked serve workers
can stream residuals to the parent over the existing pipe protocol.

This module is deliberately free of ``repro.serve`` imports: the serve
layer depends on the lifecycle, never the reverse.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..layout.io import layout_from_dict, layout_to_dict
from ..layout.layout import Layout
from ..obs import trace as obs_trace


@dataclass
class OffenderSample:
    """One above-bound residual with everything a retrain needs.

    ``sim_heights`` is the simulator's answer for ``fill`` on
    ``layout`` — kept so candidate checkpoints can be validated against
    a held-out residual set without re-running the simulator.
    """

    job_id: str
    model: str
    generation: int
    layout: dict
    fill: np.ndarray
    sim_heights: np.ndarray
    rmse: float

    def to_wire(self) -> dict:
        return {
            "job_id": self.job_id,
            "model": self.model,
            "generation": self.generation,
            "layout": self.layout,
            "fill": np.asarray(self.fill, dtype=float).tolist(),
            "sim_heights":
                np.asarray(self.sim_heights, dtype=float).tolist(),
            "rmse": float(self.rmse),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "OffenderSample":
        return cls(
            job_id=str(wire["job_id"]),
            model=str(wire["model"]),
            generation=int(wire["generation"]),
            layout=dict(wire["layout"]),
            fill=np.asarray(wire["fill"], dtype=float),
            sim_heights=np.asarray(wire["sim_heights"], dtype=float),
            rmse=float(wire["rmse"]),
        )

    def bind_layout(self) -> Layout:
        return layout_from_dict(self.layout)


@dataclass
class ResidualRecord:
    """One surrogate-vs-simulator comparison on a served fill."""

    job_id: str
    model: str
    generation: int
    rmse: float
    max_abs: float
    sample: OffenderSample | None = None

    def to_wire(self) -> dict:
        wire = {
            "job_id": self.job_id,
            "model": self.model,
            "generation": self.generation,
            "rmse": float(self.rmse),
            "max_abs": float(self.max_abs),
        }
        if self.sample is not None:
            wire["sample"] = self.sample.to_wire()
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "ResidualRecord":
        sample = wire.get("sample")
        return cls(
            job_id=str(wire["job_id"]),
            model=str(wire["model"]),
            generation=int(wire["generation"]),
            rmse=float(wire["rmse"]),
            max_abs=float(wire["max_abs"]),
            sample=(OffenderSample.from_wire(sample)
                    if isinstance(sample, dict) else None),
        )


def residual_stats(predicted: np.ndarray,
                   simulated: np.ndarray) -> tuple[float, float]:
    """(RMSE, max-abs) between two height maps, in Angstroms."""
    delta = np.asarray(predicted, dtype=float) - np.asarray(simulated,
                                                            dtype=float)
    return (float(np.sqrt(np.mean(delta * delta))),
            float(np.max(np.abs(delta))))


class ShadowExecutor:
    """Runs the real simulator on sampled served fills, off the hot path.

    Sampling is deterministic (every ``1/rate``-th submitted fill, by a
    counter — no RNG in the serve path), the work queue is bounded (a
    backed-up simulator drops samples and counts them instead of
    stalling serving), and the whole object is simply absent when
    ``sample_rate`` is 0 — the executor holds ``shadow=None`` and the
    serve fast path is byte-for-byte the pre-lifecycle one.

    Args:
        simulator: the teacher CMP simulator (any object with
            ``simulate_layout(layout, fill) -> result`` exposing
            ``.height``).
        sample_rate: fraction of submitted fills to shadow-check, in
            (0, 1].
        drift_bound: residual RMSE above which the record carries a full
            :class:`OffenderSample` for retraining/validation.
        sink: callable receiving each :class:`ResidualRecord`.
        stats: optional counter sink (``incr``/``set_gauge`` duck type).
        max_queue: bounded backlog of pending shadow simulations.
        max_offender_windows: skip offender payloads for layouts larger
            than this many windows (residual metrics still flow) so one
            full-chip job cannot pin hundreds of MB in the sample.
    """

    def __init__(self, simulator, sample_rate: float, drift_bound: float,
                 sink, stats=None, max_queue: int = 8,
                 max_offender_windows: int = 64 * 64):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}; "
                "use shadow=None to disable shadowing")
        if drift_bound <= 0:
            raise ValueError(f"drift_bound must be > 0, got {drift_bound}")
        self.simulator = simulator
        self.sample_rate = float(sample_rate)
        self.drift_bound = float(drift_bound)
        self.sink = sink
        self.stats = stats
        self.max_queue = max_queue
        self.max_offender_windows = max_offender_windows
        self._seen = 0
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-lifecycle-shadow", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, *, job_id: str, model: str, generation: int,
               layout: Layout, fill: np.ndarray, network) -> bool:
        """Offer one served fill for shadowing; True if it was sampled.

        ``network`` must expose ``predict_heights(fill)`` — the bound
        surrogate (or its coalescing wrapper) that served the job.
        Never blocks: when the backlog is full the sample is dropped and
        counted as ``lifecycle.shadow_dropped``.
        """
        with self._cond:
            if self._closed:
                return False
            before = math.floor(self._seen * self.sample_rate)
            self._seen += 1
            if math.floor(self._seen * self.sample_rate) <= before:
                return False
            if len(self._queue) >= self.max_queue:
                if self.stats is not None:
                    self.stats.incr("lifecycle.shadow_dropped")
                return False
            self._queue.append(
                (job_id, model, generation, layout,
                 np.asarray(fill, dtype=float), network))
            self._cond.notify()
        return True

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait(0.1)
                if not self._queue:
                    return  # closed and drained
                item = self._queue.popleft()
            try:
                record = self._shadow_one(*item)
            except Exception:
                if self.stats is not None:
                    self.stats.incr("lifecycle.shadow_errors")
                continue
            try:
                self.sink(record)
            except Exception:
                if self.stats is not None:
                    self.stats.incr("lifecycle.sink_errors")

    def _shadow_one(self, job_id: str, model: str, generation: int,
                    layout: Layout, fill: np.ndarray,
                    network) -> ResidualRecord:
        with obs_trace.span("lifecycle.shadow", cat="lifecycle",
                            job_id=job_id, model=model,
                            generation=generation):
            predicted = network.predict_heights(fill)
            simulated = self.simulator.simulate_layout(layout, fill).height
            rmse, max_abs = residual_stats(predicted, simulated)
        obs_trace.event("lifecycle.residual", cat="lifecycle",
                        job_id=job_id, model=model, generation=generation,
                        rmse=rmse, max_abs=max_abs)
        if self.stats is not None:
            self.stats.incr("lifecycle.shadow_runs")
            self.stats.set_gauge("lifecycle.residual_rmse", rmse)
        sample = None
        if rmse > self.drift_bound \
                and layout.grid.rows * layout.grid.cols \
                <= self.max_offender_windows:
            sample = OffenderSample(
                job_id=job_id, model=model, generation=generation,
                layout=layout_to_dict(layout), fill=fill,
                sim_heights=np.asarray(simulated, dtype=float), rmse=rmse)
        return ResidualRecord(job_id=job_id, model=model,
                              generation=generation, rmse=rmse,
                              max_abs=max_abs, sample=sample)


@dataclass
class _ModelWindow:
    """Sliding residual window + trip state for one model name."""

    window: deque = field(default_factory=deque)
    offenders: deque = field(default_factory=deque)
    armed: bool = True
    observed: int = 0
    exceeded_total: int = 0
    trips: int = 0
    last_rmse: float | None = None
    last_generation: int | None = None


class DriftWindow:
    """Windowed drift statistic with hysteresis, per model name.

    Trips when at least ``trip_count`` of the last ``window`` residuals
    exceed ``bound``.  After a trip the window is *disarmed* — further
    exceedances only count — until :meth:`note_swap` (a new generation
    went live) or :meth:`rearm` resets it.  That hysteresis is what
    keeps a drifting model from requesting a retrain per request while
    one retrain is already running or has terminally failed.
    """

    def __init__(self, bound: float, window: int = 8, trip_count: int = 3,
                 on_trip=None, stats=None, max_offenders: int = 8):
        if bound <= 0:
            raise ValueError(f"bound must be > 0, got {bound}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 1 <= trip_count <= window:
            raise ValueError(
                f"trip_count must be in [1, window={window}], "
                f"got {trip_count}")
        self.bound = float(bound)
        self.window = window
        self.trip_count = trip_count
        self.on_trip = on_trip
        self.stats = stats
        self.max_offenders = max_offenders
        self._models: dict[str, _ModelWindow] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def observe(self, record: ResidualRecord) -> bool:
        """Fold one residual in; True if this observation tripped."""
        exceeded = record.rmse > self.bound
        with self._lock:
            state = self._models.setdefault(record.model, _ModelWindow())
            state.observed += 1
            state.last_rmse = record.rmse
            state.last_generation = record.generation
            state.window.append(exceeded)
            while len(state.window) > self.window:
                state.window.popleft()
            if exceeded:
                state.exceeded_total += 1
                if record.sample is not None:
                    state.offenders.append(record.sample)
                    while len(state.offenders) > self.max_offenders:
                        state.offenders.popleft()
            tripped = (state.armed
                       and sum(state.window) >= self.trip_count)
            if tripped:
                state.armed = False
                state.trips += 1
                offenders = list(state.offenders)
        if self.stats is not None and exceeded:
            self.stats.incr("lifecycle.exceedances")
        if not tripped:
            return False
        if self.stats is not None:
            self.stats.incr("lifecycle.drift_trips")
        obs_trace.event("lifecycle.drift_trip", cat="lifecycle",
                        model=record.model, generation=record.generation,
                        rmse=record.rmse, offenders=len(offenders))
        if self.on_trip is not None:
            self.on_trip(record.model, offenders)
        return True

    def note_swap(self, model: str) -> None:
        """A new generation went live: clear the window and re-arm."""
        with self._lock:
            state = self._models.get(model)
            if state is None:
                return
            state.window.clear()
            state.offenders.clear()
            state.armed = True

    def rearm(self, model: str) -> None:
        """Manually re-arm a tripped model (operator override)."""
        with self._lock:
            state = self._models.get(model)
            if state is not None:
                state.armed = True

    def offenders(self, model: str) -> list[OffenderSample]:
        with self._lock:
            state = self._models.get(model)
            return list(state.offenders) if state is not None else []

    def status(self) -> dict:
        """Per-model drift state for the ``lifecycle`` introspection op."""
        with self._lock:
            return {
                model: {
                    "observed": state.observed,
                    "window": len(state.window),
                    "window_exceeded": sum(state.window),
                    "exceeded_total": state.exceeded_total,
                    "armed": state.armed,
                    "trips": state.trips,
                    "last_rmse": state.last_rmse,
                    "last_generation": state.last_generation,
                    "offenders_held": len(state.offenders),
                }
                for model, state in self._models.items()
            }
