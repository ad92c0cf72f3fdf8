"""MSP-SQP: multiple-starting-point SQP over the quality score (Fig. 7).

The framework couples

* the **CMP neural network** (planarity score + gradient via forward and
  backward propagation),
* the **performance-degradation estimation** (analytic score + gradient),

into one maximisation objective ``S_qual = S_plan + S_PD`` (Eq. 5a), then
runs box-constrained SQP from each starting point and keeps the best
refined solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import trace as obs_trace
from ..optimize.multistart import refine_starting_points_batched
from ..optimize.sqp import SqpOptimizer, SqpResult
from ..surrogate.network import CmpNeuralNetwork
from ..surrogate.objectives import PlanarityBreakdown
from .degradation import DegradationBreakdown, PerformanceDegradation
from .problem import FillProblem

#: Rows per stacked pass of :meth:`QualityModel.quality_rows`.  NMMSO's
#: full PSO steps send 8 probes; on design C (12x12, default UNet,
#: 2-core host) 8 single forward-only rows took 20.2 ms, two 4-row
#: stacks 12.6 ms and one 8-row stack 11.3 ms.  The 8-row plan is left
#: out for memory: a perfbench cli-fill run with 8-row stacks peaked at
#: 69.7 MB against 61.7 MB with 4, at the same pass time.  A remainder
#: runs row by row on the K = 1 plan, so a scorer adds one plan shape.
PROBE_STACK: int = 4


@dataclass
class QualityEvaluation:
    """Quality score, gradient and both breakdowns at one fill vector."""

    quality: float
    gradient: np.ndarray | None
    planarity: PlanarityBreakdown
    degradation: DegradationBreakdown


class QualityModel:
    """``S_qual`` evaluator combining surrogate planarity and analytic PD.

    Counts every network forward pass in :attr:`evaluations` so runtime
    benches can report evaluation budgets.
    """

    def __init__(self, problem: FillProblem, network: CmpNeuralNetwork):
        if network.layout is not problem.layout:
            # Allow equal layouts bound separately, but shapes must agree.
            if network.layout.shape != problem.layout.shape:
                raise ValueError("network bound to a different layout shape")
        self.problem = problem
        self.network = network
        self.weights = problem.coefficients.planarity_weights()
        self.degradation = PerformanceDegradation(
            problem.layout, problem.coefficients
        )
        self.evaluations = 0

    def evaluate(self, fill: np.ndarray, want_grad: bool = True) -> QualityEvaluation:
        self.evaluations += 1
        fill = self.problem.clip(fill)
        plan = self.network.evaluate(fill, self.weights, want_grad=want_grad)
        pd_breakdown, pd_grad = self.degradation.evaluate(fill, want_grad=want_grad)
        quality = plan.s_plan + pd_breakdown.s_pd
        gradient = None
        if want_grad:
            gradient = plan.gradient + pd_grad
        return QualityEvaluation(
            quality=quality, gradient=gradient,
            planarity=plan.breakdown, degradation=pd_breakdown,
        )

    def evaluate_many(
        self, fills: np.ndarray, need_grad: np.ndarray | bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """K stacked fill vectors through one batched network pass.

        The planarity term runs as a single ``(K * L, C, N, M)`` network
        forward plus one mask-seeded backward; the analytic degradation
        term is cheap and stays a per-start loop.  Row ``k`` equals
        :meth:`evaluate` on ``fills[k]`` bitwise — same clipping, same
        maths, and no network op mixes rows of a stack
        (``tests/surrogate/test_batch_invariance.py``) — so sequential
        and batched MSP-SQP agree bit for bit.

        Args:
            fills: stacked fill vectors ``(K, L, N, M)``.
            need_grad: bool or ``(K,)`` mask — which rows need gradients.

        Returns:
            ``(values (K,), gradients (K, L, N, M))``; gradient rows not
            requested are zero.  When no row is, the gradients are a
            read-only zero view, so a forward-only stack (an NMMSO probe
            stack) allocates none.
        """
        fills = np.asarray(fills, dtype=float)
        if fills.ndim != 4:
            raise ValueError(f"fills must be (K, L, N, M), got {fills.shape}")
        K = fills.shape[0]
        mask = np.broadcast_to(np.asarray(need_grad, dtype=bool), (K,))
        self.evaluations += K
        clipped = self.problem.clip(fills)
        plan = self.network.evaluate_batch(clipped, self.weights, grad_mask=mask)
        values = np.empty(K)
        grads = (np.zeros_like(fills) if mask.any()
                 else np.broadcast_to(np.zeros((), dtype=fills.dtype),
                                      fills.shape))
        for k in range(K):
            pd_breakdown, pd_grad = self.degradation.evaluate(
                clipped[k], want_grad=bool(mask[k])
            )
            values[k] = plan.s_plan[k] + pd_breakdown.s_pd
            if mask[k]:
                grads[k] = plan.gradient[k] + pd_grad
        return values, grads

    # Convenience adapters ------------------------------------------------
    def quality(self, fill: np.ndarray) -> float:
        return self.evaluate(fill, want_grad=False).quality

    def quality_rows(self, fills: np.ndarray) -> np.ndarray:
        """:meth:`quality` of each fill of a ``(P, L, N, M)`` stack.

        The batched scorer of PKB (:data:`repro.core.pkb.QualityFn`) and
        NMMSO (:data:`repro.optimize.nmmso.Objective`).  Rows run in
        forward-only stacks of :data:`PROBE_STACK` through
        :meth:`evaluate_many` and any remainder row by row, so the
        scorer uses only the ``PROBE_STACK`` and K = 1 plans, whatever
        ``P`` is.  Rows are independent, so the result is bitwise
        ``[quality(f) for f in fills]``; :attr:`evaluations` grows by
        ``P``.
        """
        fills = np.asarray(fills, dtype=float)
        whole = fills.shape[0] - fills.shape[0] % PROBE_STACK
        values = [self.evaluate_many(fills[k:k + PROBE_STACK],
                                     need_grad=False)[0]
                  for k in range(0, whole, PROBE_STACK)]
        values.append([self.quality(fill) for fill in fills[whole:]])
        return np.concatenate(values)

    def value_and_grad(self, fill: np.ndarray) -> tuple[float, np.ndarray]:
        ev = self.evaluate(fill, want_grad=True)
        return ev.quality, ev.gradient


@dataclass
class MspSqpOutcome:
    """Best refined solution plus the per-start SQP results."""

    best_fill: np.ndarray
    best_quality: float
    results: list[SqpResult]
    evaluations: int


def msp_sqp(
    model: QualityModel,
    starts: list[np.ndarray] | np.ndarray,
    optimizer: SqpOptimizer | None = None,
) -> MspSqpOutcome:
    """Refine every starting point with SQP; return the best solution.

    The number of starts picks the loop.  One start runs
    :meth:`SqpOptimizer.maximize` on :meth:`QualityModel.evaluate`, so a
    served single-start refinement still reaches the micro-batcher
    through ``network.evaluate``.  Several starts advance in lockstep,
    one batched network forward/backward per round — the surrogate's
    batch axis is exactly what makes many starting points cheap.  The
    per-start mathematics is shared and a row of a stacked pass is
    bitwise the solo pass, so lockstep results equal a start-by-start
    loop bit for bit.

    Args:
        model: the quality-score evaluator.
        starts: starting fills (list, or stacked ``(K, L, N, M)`` array).
        optimizer: SQP configuration.
    """
    if len(starts) == 0:
        raise ValueError("MSP-SQP needs at least one starting point")
    optimizer = optimizer or SqpOptimizer()
    lower = model.problem.lower
    upper = model.problem.upper
    before = model.evaluations
    if len(starts) > 1:
        results = refine_starting_points_batched(
            model.evaluate_many, starts, lower, upper, optimizer
        )
    else:
        with obs_trace.span("opt.multistart", cat="opt", starts=1,
                            driver="msp-sequential"):
            results = [optimizer.maximize(model.value_and_grad, starts[0],
                                          lower, upper,
                                          fun_value=model.quality)]
    best = max(results, key=lambda r: r.value)
    return MspSqpOutcome(
        best_fill=best.x, best_quality=best.value, results=results,
        evaluations=model.evaluations - before,
    )
