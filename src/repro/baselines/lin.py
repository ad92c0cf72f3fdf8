"""Lin [10]: rule-based LP dummy fill (coupling + uniformity constraints).

Lin et al. (TCAD'17) cast filling as a linear program: insert the minimum
fill such that every window reaches a per-layer target density (density
uniformity), which simultaneously limits coupling capacitance (fill is
never inserted beyond need).  Table III shows it as the fastest method
(1-9 s) with modest quality.

We reproduce that structure: per layer, the target density is a high
quantile of the reachable densities, and the LP

.. math:: \\min \\sum x \\quad \\text{s.t.} \\quad
          \\rho + x/A \\ge \\min(td_l, \\rho + s/A), \\; 0 \\le x \\le s

is solved with ``scipy.optimize.linprog`` (the per-window structure makes
the solution analytic, but we run the LP to stay method-faithful; a
closed-form fallback guards environments without HiGHS).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.problem import FillProblem
from ..core.result import FillResult


def _layer_targets(problem: FillProblem, quantile: float) -> np.ndarray:
    """Per-layer target density: a quantile of reachable densities."""
    layout = problem.layout
    rho = layout.density_stack()
    reach = rho + layout.slack_stack() / layout.grid.window_area
    return np.quantile(reach.reshape(layout.num_layers, -1), quantile, axis=1)


def _solve_layer_lp(rho: np.ndarray, slack: np.ndarray, area: float,
                    target: float) -> np.ndarray:
    """Min-fill LP for one layer (falls back to the analytic solution)."""
    need = np.clip((target - rho) * area, 0.0, slack)
    try:
        from scipy.optimize import linprog
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return need
    n = rho.size
    flat_need = need.ravel()
    result = linprog(
        c=np.ones(n),
        bounds=list(zip(flat_need, slack.ravel())),
        method="highs",
    )
    if not result.success:  # pragma: no cover - LP is trivially feasible
        return need
    return result.x.reshape(rho.shape)


def lin_fill(problem: FillProblem, quantile: float = 0.7) -> FillResult:
    """Run the Lin baseline on a fill problem.

    Args:
        problem: layout + coefficients.
        quantile: reachable-density quantile used as the per-layer target
            (higher = more uniform but more fill).
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    t0 = time.perf_counter()
    layout = problem.layout
    area = layout.grid.window_area
    targets = _layer_targets(problem, quantile)
    fill = np.stack([
        _solve_layer_lp(layer.density, layer.slack, area, float(targets[l]))
        for l, layer in enumerate(layout.layers)
    ])
    fill = problem.clip(fill)
    layout.validate_fill(fill)
    return FillResult(
        method="lin",
        fill=fill,
        quality=float("nan"),  # rule-based: no model-based quality estimate
        runtime_s=time.perf_counter() - t0,
        evaluations=0,
        extras={"targets": targets.tolist(), "quantile": quantile},
    )
