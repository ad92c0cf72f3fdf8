"""Performance-degradation estimation: ``S_PD`` and its analytic gradient.

Dummy fill degrades circuit performance through parasitic capacitance; the
paper estimates this without any CMP simulation (Section IV-B):

* total fill amount ``fa`` (Eq. 4) with gradient the all-ones matrix
  (Eq. 12);
* overlay area ``ov`` via four-type region insertion (Fig. 5, Eqs. 13-15):
  fill is assigned to slack types by priority 1 -> 4; types 2/3 overlap
  one wire, type 4 overlaps two, and type-1 fill of adjacent layers can
  overlap each other (dummy-to-dummy, Eq. 14).

The gradient here differentiates our exact forward expression (a
subgradient at the allocation breakpoints).  The paper's simplified
three-case gradient (Eq. 16) is also provided for comparison benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.fill_regions import (
    SlackRegions,
    allocate_fill_by_priority,
    allocate_into,
    compute_slack_regions,
)
from ..layout.layout import Layout
from .problem import ScoreCoefficients


@dataclass
class DegradationBreakdown:
    """Raw metrics and scores from one ``S_PD`` evaluation."""

    fill_amount: float
    overlay: float
    overlay_dummy_wire: float
    overlay_dummy_dummy: float
    score_fill: float
    score_overlay: float
    s_pd: float


def fill_amount(fill: np.ndarray) -> float:
    """Eq. 4: total fill area."""
    return float(fill.sum())


def overlay_area(fill: np.ndarray, regions: SlackRegions) -> tuple[float, float, float]:
    """Eqs. 13-15: ``(ov, ov_dummy_wire, ov_dummy_dummy)``."""
    return _overlay(fill, allocate_fill_by_priority(fill, regions), regions)


def _overlay(fill: np.ndarray, parts: np.ndarray,
             regions: SlackRegions) -> tuple[float, float, float]:
    """:func:`overlay_area` from the fill's allocation ``parts``."""
    x1, x2, x3, x4 = parts
    ov_dw = float((x2 + x3 + 2.0 * x4).sum())
    L = fill.shape[0]
    ov_dd = 0.0
    if L > 1:
        pair = x1[:-1] + x1[1:] - regions.non_overlap_slack[:-1]
        ov_dd = float(np.maximum(0.0, pair).sum())
    return ov_dw + ov_dd, ov_dw, ov_dd


def overlay_gradient(fill: np.ndarray, regions: SlackRegions) -> np.ndarray:
    """Exact (sub)gradient of Eq. 15 w.r.t. per-window total fill.

    A marginal unit of fill lands in the window's *active* type (the first
    of 1..4 with remaining capacity).  Its overlay contribution is:

    * type 2 or 3: 1 (one wire overlapped);
    * type 4: 2 (two wires);
    * type 1: 1 for each adjacent-layer dummy-to-dummy term currently in
      its linear region (Eq. 14 involves ``x1`` of layers ``l`` and
      ``l+1``, so a type-1 unit can appear in the term above *and* below).
    """
    return _overlay_gradient(fill, allocate_fill_by_priority(fill, regions),
                             regions.stacked(), regions)


def _overlay_gradient(fill: np.ndarray, parts: np.ndarray, caps: np.ndarray,
                      regions: SlackRegions) -> np.ndarray:
    """:func:`overlay_gradient` from the fill's allocation ``parts`` into
    the stacked capacity ``caps``."""
    L = fill.shape[0]

    # Active type per window: first with spare capacity; saturated windows
    # (no capacity anywhere) get the last type's marginal cost.
    spare = caps - parts
    active = np.full(fill.shape, 3, dtype=int)
    for t in (3, 2, 1, 0):
        active = np.where(spare[t] > 1e-12, t, active)

    dw_cost = np.array([0.0, 1.0, 1.0, 2.0])[active]

    grad = dw_cost
    if L > 1:
        x1 = parts[0]
        pair_active = (x1[:-1] + x1[1:] - regions.non_overlap_slack[:-1]) >= 0
        dd_cost = np.zeros(fill.shape)
        # Marginal type-1 fill in layer l contributes to the pair term
        # (l, l+1) and to the pair term (l-1, l).
        dd_cost[:-1] += pair_active.astype(float)
        dd_cost[1:] += pair_active.astype(float)
        grad = grad + np.where(active == 0, dd_cost, 0.0)
    return grad


def overlay_gradient_paper(fill: np.ndarray, regions: SlackRegions) -> np.ndarray:
    """The paper's simplified Eq. 16 gradient (for the ablation bench).

    ``0`` while adjacent type-1 fill fits in the non-overlap slack, ``2``
    when type-4 fill is present, ``1`` otherwise.
    """
    parts = allocate_fill_by_priority(fill, regions)
    x1, _, _, x4 = parts
    L = fill.shape[0]
    below_star = np.zeros(fill.shape, dtype=bool)
    if L > 1:
        below_star[:-1] = (x1[:-1] + x1[1:]) < regions.non_overlap_slack[:-1]
    else:
        below_star[:] = True
    grad = np.where(below_star, 0.0, 1.0)
    grad = np.where(x4 > 0, 2.0, grad)
    return grad


class PerformanceDegradation:
    """``S_PD`` evaluator bound to one layout (Eqs. 5c, 12-17).

    The layout's stacked slack capacity and its sum are built once, and
    each evaluation allocates its fill once for the overlay and its
    gradient: the same arithmetic as :func:`overlay_area` and
    :func:`overlay_gradient`, so the same bits.
    """

    def __init__(self, layout: Layout, coefficients: ScoreCoefficients):
        self.layout = layout
        self.coefficients = coefficients
        self.regions = compute_slack_regions(layout)
        self._capacity = self.regions.stacked()
        self._capacity_total = self._capacity.sum(axis=0)

    def evaluate(self, fill: np.ndarray,
                 want_grad: bool = True) -> tuple[DegradationBreakdown, np.ndarray | None]:
        """Score the fill vector; optionally return ``dS_PD/dx``.

        The analytic gradient follows Eq. 17 but respects score
        saturation: once ``f(t)`` clamps at 0 (or 1) the corresponding
        term stops contributing.
        """
        c = self.coefficients
        fa = fill_amount(fill)
        parts = allocate_into(fill, self._capacity, self._capacity_total)
        ov, ov_dw, ov_dd = _overlay(fill, parts, self.regions)
        f_fa = min(1.0, max(0.0, 1.0 - fa / c.beta_fill))
        f_ov = min(1.0, max(0.0, 1.0 - ov / c.beta_overlay))
        s_pd = c.alpha_fill * f_fa + c.alpha_overlay * f_ov
        breakdown = DegradationBreakdown(
            fill_amount=fa, overlay=ov, overlay_dummy_wire=ov_dw,
            overlay_dummy_dummy=ov_dd, score_fill=f_fa, score_overlay=f_ov,
            s_pd=s_pd,
        )
        if not want_grad:
            return breakdown, None
        grad = np.zeros(fill.shape)
        if 0.0 < f_fa < 1.0:
            grad -= c.alpha_fill / c.beta_fill  # Eq. 12 folded in
        if 0.0 < f_ov < 1.0:
            grad -= (c.alpha_overlay / c.beta_overlay) * _overlay_gradient(
                fill, parts, self._capacity, self.regions)
        return breakdown, grad
