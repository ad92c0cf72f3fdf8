"""Dynamic micro-batching of concurrent surrogate evaluations.

Concurrent jobs against the same bound surrogate each drive their own
SQP refinement, which issues one network forward/backward at a time.
Run naively, W worker threads make W independent single-fill passes and
the network's batch axis — exactly what PR 1's batched MSP-SQP exploits
*within* one job — sits idle *across* jobs.

:class:`MicroBatcher` closes that gap.  A job that will evaluate through
it joins as a *member* (:meth:`MicroBatcher.member`, held for its whole
run) and calls :meth:`~MicroBatcher.evaluate`, which parks the request.
A group of parked requests may flush while no other group of the batcher
is running, and then once it is full (``max_batch``), every member is
parked, its oldest request has waited ``max_delay_s``, or the batcher is
closing.  So a group runs the moment nobody else can join it, and
``max_delay_s`` only bounds the wait for a member busy elsewhere (the
simulator, another network call).  The caller that finds its group
flushable runs it, in its own thread, through
:meth:`CmpNeuralNetwork.evaluate_batch
<repro.surrogate.network.CmpNeuralNetwork.evaluate_batch>` — the same
stacked-pass primitive batched MSP-SQP is built on — and wakes the
others with their rows; there is no flusher thread.

:class:`SimulateBatcher` applies the same idea to raw ``simulate`` jobs:
concurrent requests sharing one process calibration and grid coalesce
into a single :meth:`CmpSimulator.simulate_batch
<repro.cmp.simulator.CmpSimulator.simulate_batch>` polish, which is
bitwise identical to running them one by one.  Each simulate job calls
it once, so it has no members: a flusher thread flushes a group when it
is full or its oldest request has waited ``max_delay_s``.

Fidelity contract (see DESIGN.md "Serving"): a coalesced group of K
requests returns **bitwise** what ``evaluate_batch`` returns for those K
fills stacked — coalescing adds no arithmetic of its own.  A singleton
flush (K = 1) is in turn bitwise-identical to the sequential
``evaluate`` path by construction: ``evaluate`` *is* the K = 1 stack,
on the same captured plan.  For K > 1 the repo-wide batched-evaluation
contract applies (equal up to BLAS contraction order at the last ulp,
observed ≤ 1e-10).  Requests only coalesce when they share the bound
network *and* the planarity weights, so different layouts/models/designs
never mix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time

import numpy as np

from ..cmp.simulator import CmpResult, CmpSimulator
from ..layout.layout import FeatureStack, stack_features
from ..obs import trace as obs_trace
from ..surrogate.network import CmpNeuralNetwork, PlanarityEvaluation
from ..surrogate.objectives import PlanarityWeights
from .stats import ServeStats


class _PendingEval:
    """One parked evaluation awaiting a flush."""

    __slots__ = ("fill", "want_grad", "enqueued_at", "done", "result",
                 "error")

    def __init__(self, fill: np.ndarray, want_grad: bool):
        self.fill = fill
        self.want_grad = want_grad
        self.enqueued_at = time.monotonic()
        self.done = False
        self.result: PlanarityEvaluation | None = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Coalesces single-fill evaluations against one bound network.

    Args:
        network: the bound :class:`CmpNeuralNetwork` to evaluate on.
        max_batch: flush as soon as this many requests are parked;
            ``1`` disables coalescing (calls pass straight through).
        max_delay_s: flush the oldest request after waiting this long
            for a member that is busy elsewhere — bounds added latency.
        stats: optional sink for the batch-size histogram.
    """

    def __init__(self, network: CmpNeuralNetwork, max_batch: int = 16,
                 max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.network = network
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = stats
        self._pending: dict[tuple, list[_PendingEval]] = {}
        self._cond = threading.Condition()
        self._members = 0
        self._running = False
        self._closed = False

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def member(self):
        """Count the caller as a member for the ``with`` block.

        Parked requests wait for members that are busy elsewhere (up to
        ``max_delay_s``) but never for anyone else, so a job joins
        before its first evaluation and leaves when it stops evaluating.
        """
        with self._cond:
            self._members += 1
        try:
            yield self
        finally:
            with self._cond:
                self._members -= 1
                self._cond.notify_all()  # the rest may now all be parked

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        """Drop-in for ``network.evaluate``, transparently coalesced."""
        if self.max_batch <= 1:
            return self.network.evaluate(fill, weights, want_grad=want_grad)
        pending = _PendingEval(np.asarray(fill, dtype=float), want_grad)
        key = dataclasses.astuple(weights)
        with self._cond:
            self._pending.setdefault(key, []).append(pending)
            self._cond.notify_all()  # it may complete another group
            group = self._await_turn(pending, key)
        while group is not None:
            self._run_group(key, group)
            with self._cond:
                group = self._await_turn(pending, key)
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def close(self) -> None:
        """Flush every parked request without waiting any longer.

        Parked callers wake and run their groups themselves; later
        calls flush at once, on this batcher's network.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _await_turn(self, pending: _PendingEval,
                    key: tuple) -> list[_PendingEval] | None:
        """Wait until ``pending`` is answered (``None``) or a group of
        ``key`` may flush; claim that group for the caller to run.

        Must be called with the condition held.
        """
        while not pending.done:
            group = self._take_group(key)
            if group is not None:
                self._running = True
                return group
            queue = self._pending.get(key)
            timeout = None  # woken when the running group finishes
            if queue and not self._running:
                timeout = max(0.0, queue[0].enqueued_at + self.max_delay_s
                              - time.monotonic())
            self._cond.wait(timeout)
        return None

    def _take_group(self, key: tuple) -> list[_PendingEval] | None:
        """Pop ``key``'s group if it may flush, else ``None`` (condition
        held).

        Nothing flushes while another group runs.  Otherwise a group
        flushes when it is full, every member is parked, its oldest
        request waited ``max_delay_s``, or the batcher is closing.
        """
        queue = self._pending.get(key)
        if self._running or not queue:
            return None
        parked = sum(len(q) for q in self._pending.values())
        if not (len(queue) >= self.max_batch or parked >= self._members
                or self._closed or time.monotonic()
                - queue[0].enqueued_at >= self.max_delay_s):
            return None
        take, rest = queue[:self.max_batch], queue[self.max_batch:]
        if rest:
            self._pending[key] = rest
        else:
            del self._pending[key]
        return take

    def _run_group(self, key: tuple, group: list[_PendingEval]) -> None:
        weights = PlanarityWeights(*key)
        try:
            with obs_trace.span("serve.batch_flush", cat="serve",
                                size=len(group)):
                fills = np.stack([p.fill for p in group])
                mask = np.array([p.want_grad for p in group], dtype=bool)
                batch = self.network.evaluate_batch(fills, weights,
                                                    grad_mask=mask)
                for k, p in enumerate(group):
                    gradient = None
                    if p.want_grad and batch.gradient is not None:
                        gradient = batch.gradient[k].copy()
                    p.result = PlanarityEvaluation(
                        s_plan=float(batch.s_plan[k]),
                        breakdown=batch.breakdowns[k],
                        heights=batch.heights[k].copy(),
                        gradient=gradient,
                    )
        except BaseException as exc:  # propagate into every waiter
            for p in group:
                p.error = exc
        finally:
            if self.stats is not None:
                self.stats.record_batch(len(group))
            with self._cond:
                for p in group:
                    p.done = True
                self._running = False
                self._cond.notify_all()


class _PendingSim:
    """One parked simulation awaiting a flush."""

    __slots__ = ("features", "simulator", "enqueued_at", "event", "result",
                 "error")

    def __init__(self, features: FeatureStack, simulator: CmpSimulator):
        self.features = features
        self.simulator = simulator
        self.enqueued_at = time.monotonic()
        self.event = threading.Event()
        self.result: CmpResult | None = None
        self.error: BaseException | None = None


class SimulateBatcher:
    """Coalesces concurrent ``simulate`` jobs into batched polishes.

    The simulate-side twin of :class:`MicroBatcher`: worker threads call
    :meth:`simulate`; the call parks until ``max_batch`` requests have
    gathered or the oldest has waited ``max_delay_s``, then the flusher
    runs the group through :meth:`CmpSimulator.simulate_batch
    <repro.cmp.simulator.CmpSimulator.simulate_batch>` and scatters the
    per-layout results.  Unlike :class:`MicroBatcher` it keeps a flusher
    thread and has no members: each simulate job calls it once, so no
    job's attendance can end the wait early.

    Requests coalesce only when they share the process calibration,
    window size and feature-stack shape — different layouts on one grid
    stack fine; different physics never mix.  The
    fidelity contract is *stronger* than the network batcher's: the
    batched simulator is **bitwise identical** to looping ``simulate``,
    so coalescing can never change a job's reported numbers.

    Args:
        max_batch: flush as soon as this many requests are parked;
            ``1`` disables coalescing (calls pass straight through).
        max_delay_s: flush the oldest request after waiting this long
            even if the batch is not full — bounds added latency.
        stats: optional sink for the simulate-batch-size histogram.
    """

    def __init__(self, max_batch: int = 16, max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = stats
        self._pending: dict[tuple, list[_PendingSim]] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._thread: threading.Thread | None = None
        if max_batch > 1:
            self._thread = threading.Thread(
                target=self._flush_loop, name="repro-serve-sim-batcher",
                daemon=True,
            )
            self._thread.start()

    # ------------------------------------------------------------------
    def simulate(self, features: FeatureStack,
                 simulator: CmpSimulator) -> CmpResult:
        """Drop-in for ``simulator.simulate``, transparently coalesced."""
        if self.max_batch <= 1:
            return simulator.simulate(features)
        pending = _PendingSim(features, simulator)
        # ProcessParams is a frozen dataclass, so the physics coalesces
        # by value: two jobs with the same polish-time override share a
        # group even though each built its own simulator instance.
        key = (simulator.params, simulator.window_um, features.shape)
        with self._cond:
            if self._closed:  # flusher may already have drained and exited
                parked = False
            else:
                self._pending.setdefault(key, []).append(pending)
                parked = True
                self._cond.notify_all()
        if not parked:
            return simulator.simulate(features)
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def close(self) -> None:
        """Stop the flusher after draining every parked request."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # ------------------------------------------------------------------
    def _take_group(self) -> tuple[tuple, list[_PendingSim]] | None:
        """Pop the most urgent flushable group (condition held)."""
        now = time.monotonic()
        best_key, best_age = None, -1.0
        for key, group in self._pending.items():
            age = now - group[0].enqueued_at
            if len(group) >= self.max_batch or self._closed \
                    or age >= self.max_delay_s:
                if age > best_age:
                    best_key, best_age = key, age
        if best_key is None:
            return None
        group = self._pending[best_key]
        take, rest = group[:self.max_batch], group[self.max_batch:]
        if rest:
            self._pending[best_key] = rest
        else:
            del self._pending[best_key]
        return best_key, take

    def _next_deadline(self) -> float | None:
        """Monotonic time of the earliest pending flush (cond held)."""
        oldest = None
        for group in self._pending.values():
            t = group[0].enqueued_at
            if oldest is None or t < oldest:
                oldest = t
        return None if oldest is None else oldest + self.max_delay_s

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    taken = self._take_group()
                    if taken is not None:
                        break
                    if self._closed and not self._pending:
                        return
                    deadline = self._next_deadline()
                    timeout = (None if deadline is None
                               else max(0.0, deadline - time.monotonic()))
                    self._cond.wait(timeout)
            _, group = taken
            self._run_group(group)

    def _run_group(self, group: list[_PendingSim]) -> None:
        # Every member shares the group key, so any member's simulator
        # carries the group's physics.
        simulator = group[0].simulator
        try:
            with obs_trace.span("serve.sim_flush", cat="serve",
                                size=len(group)):
                if len(group) == 1:
                    group[0].result = simulator.simulate(group[0].features)
                else:
                    batch = simulator.simulate_batch(
                        stack_features([p.features for p in group]))
                    for k, p in enumerate(group):
                        p.result = batch.entry(k)
        except BaseException as exc:  # propagate into every waiter
            for p in group:
                p.error = exc
        finally:
            if self.stats is not None:
                self.stats.record_sim_batch(len(group))
            for p in group:
                p.event.set()


class CoalescedNetwork:
    """A :class:`CmpNeuralNetwork` facade routing single evaluations
    through a shared :class:`MicroBatcher`.

    Hands ``evaluate`` to the batcher and delegates everything else
    (``layout``, ``evaluate_batch``, ``predict_heights``, ...) to the
    wrapped network, so :class:`repro.core.msp_sqp.QualityModel` and
    :class:`repro.core.neurfill.NeurFill` work unmodified.  In-job
    stacked passes (batched MSP-SQP) are already batched and pass
    through untouched.  A job evaluating through the facade holds
    :meth:`member` for its whole run.
    """

    def __init__(self, network: CmpNeuralNetwork, batcher: MicroBatcher):
        self._network = network
        self._batcher = batcher

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        return self._batcher.evaluate(fill, weights, want_grad=want_grad)

    def member(self):
        """The batcher's :meth:`MicroBatcher.member` context."""
        return self._batcher.member()

    def __getattr__(self, name: str):
        return getattr(self._network, name)
