"""Multi-start utilities shared by the MSP-SQP framework.

Two refinement drivers share the exact same per-start SQP mathematics
(:meth:`~repro.optimize.sqp.SqpOptimizer.maximize_steps`):

* :func:`refine_starting_points` — one start after another, classic.
* :func:`refine_starting_points_batched` — all starts advance in
  lockstep; each round gathers every live start's pending evaluation
  request and services them with ONE batched oracle call.  With a neural
  surrogate this turns K single-sample network passes per iteration into
  one K-sample pass — the "gradients are cheap, so run many starts"
  promise of the MSP framework made real on the hardware.  A round that
  needs any gradient differentiates every row (a network's stacked
  backward sweep costs the same whatever the mask), so a start whose
  line search accepts its trial gets that point's gradient without
  another row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import rng_from_seed, same_bits
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .sqp import SqpOptimizer, SqpResult, ValueAndGrad

#: Batched oracle: ``(points (k, *shape), need_grad (k,) bool) ->
#: (values (k,), grads (k, *shape))``.  Rows of ``grads`` where
#: ``need_grad`` is False may be zero (they are never read).
BatchValueAndGrad = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def random_starting_points_stacked(
    lower: np.ndarray,
    upper: np.ndarray,
    count: int,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Uniform random feasible points, stacked as ``(count, *shape)``.

    One contiguous array, ready for :func:`refine_starting_points_batched`
    or :meth:`~repro.surrogate.network.CmpNeuralNetwork.evaluate_batch`
    without per-call re-stacking.  The draw consumes the RNG stream in the
    same order as ``count`` sequential per-start draws, so the historical
    list API (:func:`random_starting_points`) returns identical points.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rng = rng_from_seed(seed)
    return lower + rng.random((count, *lower.shape)) * (upper - lower)


def random_starting_points(
    lower: np.ndarray,
    upper: np.ndarray,
    count: int,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """Uniform random feasible points in the box (list API).

    Thin wrapper over :func:`random_starting_points_stacked`; the returned
    list holds views into one stacked array.
    """
    return list(random_starting_points_stacked(lower, upper, count, seed=seed))


def refine_starting_points(
    fun: ValueAndGrad,
    starts: list[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    optimizer: SqpOptimizer | None = None,
) -> list[SqpResult]:
    """Run SQP from every start; results keep the input order."""
    if len(starts) == 0:
        raise ValueError("no starting points supplied")
    optimizer = optimizer or SqpOptimizer()
    with obs_trace.span("opt.multistart", cat="opt", starts=len(starts),
                        driver="sequential"):
        results = []
        for index, start in enumerate(starts):
            with obs_trace.span("opt.start", cat="opt", index=index):
                results.append(optimizer.maximize(fun, start, lower, upper))
        return results


def refine_starting_points_batched(
    fun_batch: BatchValueAndGrad,
    starts: list[np.ndarray] | np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    optimizer: SqpOptimizer | None = None,
) -> list[SqpResult]:
    """Lockstep multi-start SQP: every iteration advances all live starts
    with a single batched oracle call.

    Each start owns a :meth:`~repro.optimize.sqp.SqpOptimizer.maximize_steps`
    generator.  Per round, the pending request of every unfinished start is
    collected — a mix of gradient requests (major iterations) and value-only
    requests (line-search trials) — and serviced together by one oracle
    call.  Converged starts simply drop out of the batch.

    A round carrying any gradient request asks for every row's gradient
    (an all-true mask): a network's stacked backward sweep costs the same
    whatever the mask, so the extra rows cost only the oracle's per-row
    gradient work outside the network.  Each start keeps its last oracle row ``(point, value,
    gradient)``, and its next ``("grad", x)`` request is answered from it,
    without an oracle row, when ``x`` is bitwise equal to that point — the
    usual case, since SQP asks for the gradient at the line-search trial
    it has just accepted.

    Because the per-start mathematics is byte-for-byte the sequential
    implementation, results are identical to :func:`refine_starting_points`
    whenever ``fun_batch`` row ``k`` equals the sequential oracle at that
    point — only the wall clock and the number of oracle rows change.

    Args:
        fun_batch: batched oracle ``(points, need_grad) -> (values, grads)``;
            see :data:`BatchValueAndGrad`.
        starts: K starting points (list, or stacked ``(K, *shape)`` array).
        lower / upper: box bounds (broadcastable to one start).
        optimizer: SQP configuration shared by all starts.

    Returns:
        Per-start :class:`~repro.optimize.sqp.SqpResult` in input order.
    """
    if len(starts) == 0:
        raise ValueError("no starting points supplied")
    optimizer = optimizer or SqpOptimizer()
    generators = [
        optimizer.maximize_steps(np.asarray(s, dtype=float), lower, upper)
        for s in starts
    ]
    K = len(generators)
    results: list[SqpResult | None] = [None] * K
    pending: dict[int, tuple[str, np.ndarray]] = {}
    #: Each start's last oracle row: (point, value, gradient or None).
    last: dict[int, tuple[np.ndarray, float, np.ndarray | None]] = {}

    def advance(i: int, reply: object) -> None:
        try:
            pending[i] = generators[i].send(reply)
        except StopIteration as done:
            results[i] = done.value
            pending.pop(i, None)

    def cached_grad(i: int) -> tuple[float, np.ndarray] | None:
        kind, point = pending[i]
        row = last.get(i)
        if (kind != "grad" or row is None or row[2] is None
                or not same_bits(row[0], point)):
            return None
        return row[1], row[2]

    observing = obs_trace.active() is not None
    rounds = 0
    oracle_rows = 0
    grad_cache_hits = 0
    with obs_trace.span("opt.multistart", cat="opt", starts=K,
                        driver="batched") as span:
        for i in range(K):
            advance(i, None)
        while pending:
            for i in sorted(pending):
                hit = cached_grad(i)
                if hit is not None:
                    grad_cache_hits += 1
                    advance(i, hit)
            if not pending:
                break
            live = sorted(pending)
            points = np.stack([pending[i][1] for i in live])
            any_grad = any(pending[i][0] == "grad" for i in live)
            need_grad = np.full(len(live), any_grad)
            if observing:
                rounds += 1
                oracle_rows += len(live)
                # Lockstep health metric: how wide each batched oracle
                # call is — the whole point of the batched driver.
                obs_metrics.registry().observe("opt.batch_width", len(live))
            values, grads = fun_batch(points, need_grad)
            for row, i in enumerate(live):
                kind, point = pending[i]
                value = float(values[row])
                grad = (np.asarray(grads[row], dtype=float) if any_grad
                        else None)
                last[i] = (point, value, grad)
                advance(i, (value, grad) if kind == "grad" else value)
        if observing:
            span.set(rounds=rounds, oracle_rows=oracle_rows,
                     grad_cache_hits=grad_cache_hits)
    return results  # type: ignore[return-value]


def best_result(results: list[SqpResult]) -> SqpResult:
    """Highest-value result of a multi-start batch."""
    if not results:
        raise ValueError("empty result list")
    return max(results, key=lambda r: r.value)
