"""Cai [12]: model-based SQP filling with *numerical* gradients (TCAD'21).

The state-of-the-art the paper improves on: the same quality objective as
NeurFill (CMP-model planarity + analytic performance degradation) and the
same SQP optimizer, but the planarity score is evaluated by invoking the
full-chip CMP simulator and its gradient by finite differences — one
full-chip simulation per fill variable per iteration.  This is the
runtime bottleneck Table I quantifies (34 100 s per gradient on one core)
and why Table III shows Cai needing 1.5-17.2 h on 64 cores.

To keep the baseline runnable on one CPU the number of SQP major
iterations is budgeted (``max_sqp_iterations``); the gradient itself is
the honest full finite-difference pass.
"""

from __future__ import annotations

import time

import numpy as np

from ..cmp.numgrad import (
    forward_difference_gradient,
    forward_difference_gradient_batched,
)
from ..cmp.simulator import CmpSimulator
from ..layout.layout import apply_fill
from ..core.degradation import PerformanceDegradation
from ..core.pkb import pkb_starting_point
from ..core.problem import FillProblem
from ..core.result import FillResult
from ..core.scoring import planarity_metrics
from ..optimize.sqp import SqpOptimizer


class SimulatorQuality:
    """Quality score evaluated through the real CMP simulator."""

    def __init__(self, problem: FillProblem, simulator: CmpSimulator | None = None):
        self.problem = problem
        self.simulator = simulator or CmpSimulator()
        self.degradation = PerformanceDegradation(
            problem.layout, problem.coefficients
        )
        self.simulations = 0

    def _score(self, heights: np.ndarray, fill: np.ndarray) -> float:
        """Eq. 5a from simulated heights and an already-clipped fill."""
        c = self.problem.coefficients
        _, sigma, line, ol = planarity_metrics(heights)
        f_sigma = min(1.0, max(0.0, 1.0 - sigma / c.beta_sigma))
        f_line = min(1.0, max(0.0, 1.0 - line / c.beta_line))
        f_ol = min(1.0, max(0.0, 1.0 - ol / c.beta_outlier))
        s_plan = (
            c.alpha_sigma * f_sigma + c.alpha_line * f_line
            + c.alpha_outlier * f_ol
        )
        pd, _ = self.degradation.evaluate(fill, want_grad=False)
        return s_plan + pd.s_pd

    def quality(self, fill: np.ndarray) -> float:
        """``S_qual`` (Eq. 5a) with simulator-evaluated planarity."""
        self.simulations += 1
        fill = self.problem.clip(fill)
        heights = self.simulator.simulate_layout(self.problem.layout, fill).height
        return self._score(heights, fill)

    def quality_batch(self, fills: np.ndarray) -> np.ndarray:
        """``S_qual`` for a ``(P, L, N, M)`` stack of fill candidates.

        One :meth:`~repro.cmp.simulator.CmpSimulator.simulate_batch`
        call replaces ``P`` solo polishes.  The batched simulator is
        bitwise identical to looping :meth:`quality` over the stack, and
        the scoring arithmetic is shared, so the returned values are
        bitwise equal to the sequential ones.  Each entry still counts
        as one simulation — the honest cost accounting Table I relies on.
        """
        fills = np.asarray(fills)
        expected = self.problem.layout.shape
        if fills.ndim != 4 or fills.shape[1:] != expected:
            raise ValueError(
                f"fills must have shape (P, {', '.join(map(str, expected))})"
                f"; got {fills.shape}")
        self.simulations += fills.shape[0]
        clipped = [self.problem.clip(f) for f in fills]
        stacks = [apply_fill(self.problem.layout, f) for f in clipped]
        result = self.simulator.simulate_batch(stacks)
        return np.array([
            self._score(result.height[p], clipped[p])
            for p in range(len(clipped))
        ])

    def value_and_numerical_grad(
        self, fill: np.ndarray, eps: float, sim_batch: int | None = None
    ) -> tuple[float, np.ndarray]:
        """One objective value + a full forward-difference gradient.

        Costs ``n + 1`` simulator invocations — the bottleneck the paper
        replaces with backpropagation.  With ``sim_batch`` set, the
        probes are evaluated through :meth:`quality_batch` in chunks of
        that many layouts per batched simulation; the gradient is
        bitwise identical to the sequential pass, only faster.
        """
        value = self.quality(fill)
        if sim_batch is None:
            grad = forward_difference_gradient(
                self.quality, fill, eps=eps, upper=self.problem.upper
            )
            # forward_difference_gradient evaluated the base point again
            # plus one probe per variable; both went through self.quality,
            # so the simulation counter is already accurate.
        else:
            grad = forward_difference_gradient_batched(
                self.quality_batch, fill, eps=eps,
                upper=self.problem.upper, batch_size=sim_batch,
                base=value,
            )
        return value, grad


def cai_fill(
    problem: FillProblem,
    simulator: CmpSimulator | None = None,
    max_sqp_iterations: int = 4,
    fd_eps: float = 500.0,
    pkb_candidates: int = 7,
    sim_batch: int | None = 32,
) -> FillResult:
    """Run the Cai baseline: PKB start + SQP with numerical gradients.

    Args:
        problem: layout + coefficients.
        simulator: the full-chip CMP simulator (default calibration).
        max_sqp_iterations: budget of SQP major iterations (each costs a
            full finite-difference gradient = ``n + 1`` simulations).
        fd_eps: finite-difference probe in um^2 of fill (large enough to
            step over the polish loop's time-step quantisation).
        pkb_candidates: linear-search grid of the PKB starting point,
            ranked in one batched polish
            (:meth:`SimulatorQuality.quality_batch`).
        sim_batch: finite-difference probes per batched simulation
            (``None`` falls back to one simulator call per probe).  The
            simulation *count* — the figure of merit Table I reports —
            is unchanged; only the Python overhead per probe amortises.
    """
    if max_sqp_iterations <= 0:
        raise ValueError("max_sqp_iterations must be positive")
    t0 = time.perf_counter()
    model = SimulatorQuality(problem, simulator)
    pkb = pkb_starting_point(problem.layout, model.quality_batch,
                             pkb_candidates)
    optimizer = SqpOptimizer(max_iter=max_sqp_iterations, tol=1e-9)
    result = optimizer.maximize(
        lambda x: model.value_and_numerical_grad(x, fd_eps,
                                                 sim_batch=sim_batch),
        pkb.fill, problem.lower, problem.upper,
        fun_value=model.quality,  # line-search trials cost 1 simulation
    )
    fill = problem.clip(result.x)
    problem.layout.validate_fill(fill)
    return FillResult(
        method="cai",
        fill=fill,
        quality=result.value,
        runtime_s=time.perf_counter() - t0,
        evaluations=model.simulations,
        extras={
            "pkb_quality": pkb.quality,
            "sqp_iterations": result.iterations,
            "simulations": model.simulations,
        },
    )
