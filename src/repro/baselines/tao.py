"""Tao [11]: rule-based SQP dummy fill (ICCAD'16 unified framework).

Tao et al. optimise *rule* metrics — density variance, density line
deviation — with an SQP solver, never invoking a CMP model.  The rules
are smooth analytic functions of the fill vector, so gradients are exact
and cheap; the weakness (which the paper's Section I calls the "intrinsic
incompleteness of empirical rules") is that density uniformity is only a
proxy for post-CMP height uniformity.

Objective (maximised):

.. math:: R(x) = \\alpha_\\sigma f(\\kappa_\\sigma \\, var_d)
               + \\alpha_{\\sigma^*} f(\\kappa_{\\sigma^*} \\, line_d)
               + \\alpha_{ol} + S_{PD}(x)

where ``var_d``/``line_d`` are the post-fill density variance and density
line deviation, and the ``kappa`` factors rescale density-rule units into
the benchmark's height-metric betas (calibrated so the unfilled layout
scores the same under the rule as under the model).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.degradation import PerformanceDegradation
from ..core.problem import FillProblem
from ..core.result import FillResult
from ..optimize.sqp import SqpOptimizer


class _RuleObjective:
    """Smooth rule-based score with analytic gradient."""

    def __init__(self, problem: FillProblem):
        layout = problem.layout
        c = problem.coefficients
        self.area = layout.grid.window_area
        self.rho = layout.density_stack()
        self.c = c
        self.degradation = PerformanceDegradation(layout, c)
        # Rescale density metrics onto the height-metric betas: the
        # unfilled layout consumes the same score fraction either way.
        var0 = float(sum(np.var(self.rho[l]) for l in range(self.rho.shape[0])))
        line0 = 0.0
        for l in range(self.rho.shape[0]):
            col = self.rho[l].mean(axis=0, keepdims=True)
            line0 += float(np.abs(self.rho[l] - col).sum())
        self.kappa_sigma = (c.beta_sigma / 2.0) / max(var0, 1e-12)
        self.kappa_line = (c.beta_line / 2.0) / max(line0, 1e-12)
        self.evaluations = 0

    def __call__(self, fill: np.ndarray) -> tuple[float, np.ndarray]:
        self.evaluations += 1
        c = self.c
        d = self.rho + fill / self.area
        L, N, M = d.shape

        var_d = 0.0
        grad_var = np.zeros_like(d)
        line_d = 0.0
        grad_line = np.zeros_like(d)
        for l in range(L):
            mean = d[l].mean()
            centred = d[l] - mean
            var_d += float(np.mean(centred**2))
            grad_var[l] = 2.0 * centred / (N * M)
            col = d[l].mean(axis=0, keepdims=True)
            dev = d[l] - col
            line_d += float(np.abs(dev).sum())
            sign = np.sign(dev)
            grad_line[l] = sign - sign.mean(axis=0, keepdims=True)

        t_sigma = self.kappa_sigma * var_d
        t_line = self.kappa_line * line_d
        f_sigma = max(0.0, 1.0 - t_sigma / c.beta_sigma)
        f_line = max(0.0, 1.0 - t_line / c.beta_line)
        value = c.alpha_sigma * f_sigma + c.alpha_line * f_line + c.alpha_outlier

        grad = np.zeros_like(fill)
        if f_sigma > 0.0:
            grad -= (c.alpha_sigma * self.kappa_sigma / c.beta_sigma) * grad_var / self.area
        if f_line > 0.0:
            grad -= (c.alpha_line * self.kappa_line / c.beta_line) * grad_line / self.area

        pd_breakdown, pd_grad = self.degradation.evaluate(fill, want_grad=True)
        return value + pd_breakdown.s_pd, grad + pd_grad


def tao_fill(problem: FillProblem, optimizer: SqpOptimizer | None = None) -> FillResult:
    """Run the Tao baseline: SQP on rule metrics from the zero fill."""
    t0 = time.perf_counter()
    objective = _RuleObjective(problem)
    optimizer = optimizer or SqpOptimizer(max_iter=80, tol=1e-9)
    result = optimizer.maximize(
        objective, np.zeros(problem.layout.shape), problem.lower, problem.upper
    )
    fill = problem.clip(result.x)
    problem.layout.validate_fill(fill)
    return FillResult(
        method="tao",
        fill=fill,
        quality=result.value,
        runtime_s=time.perf_counter() - t0,
        evaluations=objective.evaluations,
        extras={"iterations": result.iterations, "converged": result.converged},
    )
