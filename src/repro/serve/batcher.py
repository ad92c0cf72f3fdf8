"""Dynamic micro-batching of concurrent surrogate evaluations and simulations.

Concurrent jobs against the same bound surrogate each drive their own
SQP refinement, which issues one network forward/backward at a time.
Run naively, W worker threads make W independent single-fill passes and
the network's batch axis — exactly what batched MSP-SQP exploits
*within* one job — sits idle *across* jobs.  Concurrent raw ``simulate``
jobs leave the batched CMP simulator idle the same way.

Both batchers close that gap with one rule, written once in
:class:`_Coalescer`.  A job that will call a batcher joins as a *member*
(:meth:`~_Coalescer.member`, held for its whole run), and each call
parks its request in the group of its key.  A group may flush while no
other group of the batcher is running, and then once it is full
(``max_batch``), every member is parked, its oldest request has waited
``max_delay_s``, or the batcher is closing.  So a group runs the moment
nobody else can join it, and ``max_delay_s`` only bounds the wait for a
member busy elsewhere.  The caller that finds its group flushable runs
it in its own thread and wakes the others with their results; there is
no flusher thread.

* :class:`MicroBatcher` keys network evaluations by planarity weights
  and runs a group as one ``evaluate_batch`` stacked pass; it stands in
  for its network, forwarding every other attribute to it.
* :class:`SimulateBatcher` keys simulations by process calibration,
  window size and grid, and runs a group as one ``simulate_batch``
  polish.

Fidelity contract (see DESIGN.md "Serving"): a coalesced group of K
evaluations returns **bitwise** what ``evaluate_batch`` returns for
those K fills stacked — coalescing adds no arithmetic of its own.  A
group of one (K = 1) is in turn bitwise-identical to the sequential
``evaluate`` path by construction: ``evaluate`` *is* the K = 1 stack,
on the same captured plan.  For K > 1 the repo-wide batched-evaluation
contract applies (equal up to BLAS contraction order at the last ulp,
observed ≤ 1e-10).  The batched simulator is bitwise identical to
looping ``simulate`` at every K.  Requests coalesce only within one
key, so different layouts/models/designs or physics never mix.
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


class _Parked:
    """One parked request awaiting its group's flush."""

    __slots__ = ("item", "enqueued_at", "done", "result", "error")

    def __init__(self, item: tuple):
        self.item = item
        self.enqueued_at = time.monotonic()
        self.done = False
        self.result = None
        self.error: BaseException | None = None


class _Coalescer:
    """Members, parked groups and the flush rule shared by both batchers.

    A subclass supplies a request's group key (when it calls
    :meth:`_submit`), how a group runs (:meth:`_run_group`), which
    histogram records it (:meth:`_record`) and its flush span's name.

    Args:
        max_batch: flush as soon as this many requests are parked;
            ``1`` disables coalescing (calls pass straight through).
        max_delay_s: flush the oldest request after waiting this long
            for a member that is busy elsewhere — bounds added latency.
        stats: optional sink for the batch-size histogram.
    """

    _span = ""

    def __init__(self, max_batch: int = 16, max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = stats
        self._pending: dict[tuple, list[_Parked]] = {}
        self._cond = threading.Condition()
        self._members = 0
        self._running = False
        self._closed = False

    @contextlib.contextmanager
    def member(self):
        """Count the caller as a member for the ``with`` block.

        Parked requests wait for members that are busy elsewhere (up to
        ``max_delay_s``) but never for anyone else, so a job joins
        before its first call and leaves when it stops calling.
        """
        with self._cond:
            self._members += 1
        try:
            yield self
        finally:
            with self._cond:
                self._members -= 1
                self._cond.notify_all()  # the rest may now all be parked

    def close(self) -> None:
        """Flush every parked request without waiting any longer.

        Parked callers wake and run their groups themselves; later
        calls flush at once.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _submit(self, key: tuple, item: tuple):
        """Park ``item`` in ``key``'s group; return its result once a
        flush (possibly run by this caller) has answered it."""
        parked = _Parked(item)
        with self._cond:
            self._pending.setdefault(key, []).append(parked)
            self._cond.notify_all()  # it may complete another group
            group = self._await_turn(parked, key)
        while group is not None:
            self._flush(key, group)
            with self._cond:
                group = self._await_turn(parked, key)
        if parked.error is not None:
            raise parked.error
        return parked.result

    def _await_turn(self, parked: _Parked,
                    key: tuple) -> list[_Parked] | None:
        """Wait until ``parked`` is answered (``None``) or a group of
        ``key`` may flush; claim that group for the caller to run.

        Must be called with the condition held.
        """
        while not parked.done:
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

    def _take_group(self, key: tuple) -> list[_Parked] | None:
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

    def _flush(self, key: tuple, group: list[_Parked]) -> None:
        try:
            with obs_trace.span(self._span, cat="serve", size=len(group)):
                results = self._run_group(key, [p.item for p in group])
            for p, result in zip(group, results):
                p.result = result
        except BaseException as exc:  # propagate into every waiter
            for p in group:
                p.error = exc
        finally:
            if self.stats is not None:
                self._record(len(group))
            with self._cond:
                for p in group:
                    p.done = True
                self._running = False
                self._cond.notify_all()

    def _run_group(self, key: tuple, items: list[tuple]) -> list:
        """One result per item, in order."""
        raise NotImplementedError

    def _record(self, size: int) -> None:
        raise NotImplementedError


class MicroBatcher(_Coalescer):
    """Coalesces single-fill evaluations against one bound network.

    Stands in for the network: :meth:`evaluate` is coalesced, and every
    other attribute (``layout``, ``evaluate_batch``, ``predict_heights``,
    ...) is the network's, so :class:`repro.core.msp_sqp.QualityModel`
    and :class:`repro.core.neurfill.NeurFill` run on it unmodified.
    In-job stacked passes (batched MSP-SQP) are already batched and go
    straight to the network.  A job evaluating through the batcher holds
    :meth:`member` for its whole run.

    Args:
        network: the bound :class:`CmpNeuralNetwork` to evaluate on.
        max_batch / max_delay_s / stats: as for :class:`_Coalescer`;
            ``stats`` receives the batch-size histogram.
    """

    _span = "serve.batch_flush"

    def __init__(self, network: CmpNeuralNetwork, max_batch: int = 16,
                 max_delay_s: float = 0.004,
                 stats: ServeStats | None = None):
        self.network = network
        super().__init__(max_batch, max_delay_s, stats)

    def __getattr__(self, name: str):
        return getattr(self.network, name)

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        """Drop-in for ``network.evaluate``, transparently coalesced."""
        if self.max_batch <= 1:
            return self.network.evaluate(fill, weights, want_grad=want_grad)
        return self._submit(dataclasses.astuple(weights),
                            (np.asarray(fill, dtype=float), want_grad))

    def _run_group(self, key: tuple,
                   items: list[tuple]) -> list[PlanarityEvaluation]:
        mask = np.array([want_grad for _, want_grad in items], dtype=bool)
        batch = self.network.evaluate_batch(
            np.stack([fill for fill, _ in items]), PlanarityWeights(*key),
            grad_mask=mask)
        return [
            PlanarityEvaluation(
                s_plan=float(batch.s_plan[k]),
                breakdown=batch.breakdowns[k],
                heights=batch.heights[k].copy(),
                gradient=(batch.gradient[k].copy()
                          if want_grad and batch.gradient is not None
                          else None),
            )
            for k, (_, want_grad) in enumerate(items)
        ]

    def _record(self, size: int) -> None:
        self.stats.record_batch(size)


class SimulateBatcher(_Coalescer):
    """Coalesces concurrent ``simulate`` jobs into batched polishes.

    A simulate job holds :meth:`member` from layout load through its
    polish and calls :meth:`simulate`; a group runs through
    :meth:`CmpSimulator.simulate_batch
    <repro.cmp.simulator.CmpSimulator.simulate_batch>` and scatters the
    per-layout results.

    Requests coalesce only when they share the process calibration,
    window size and feature-stack shape — different layouts on one grid
    stack fine; different physics never mix.  The fidelity contract is
    *stronger* than the network batcher's: the batched simulator is
    **bitwise identical** to looping ``simulate``, so coalescing can
    never change a job's reported numbers.

    Args: as for :class:`_Coalescer`; ``stats`` receives the
    simulate-batch-size histogram.
    """

    _span = "serve.sim_flush"

    def simulate(self, features: FeatureStack,
                 simulator: CmpSimulator) -> CmpResult:
        """Drop-in for ``simulator.simulate``, transparently coalesced."""
        if self.max_batch <= 1:
            return simulator.simulate(features)
        # ProcessParams is a frozen dataclass, so the physics coalesces
        # by value: two jobs with the same polish-time override share a
        # group even though each built its own simulator instance.
        key = (simulator.params, simulator.window_um, features.shape)
        return self._submit(key, (features, simulator))

    def _run_group(self, key: tuple, items: list[tuple]) -> list[CmpResult]:
        # Every request shares the group key, so any request's simulator
        # carries the group's physics.
        simulator = items[0][1]
        if len(items) == 1:
            return [simulator.simulate(items[0][0])]
        batch = simulator.simulate_batch(
            stack_features([features for features, _ in items]))
        return [batch.entry(k) for k in range(len(items))]

    def _record(self, size: int) -> None:
        self.stats.record_sim_batch(size)
