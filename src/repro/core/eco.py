"""Incremental (ECO) refill: dirty-window re-synthesis with receptive-field
exactness.

The operation a high-traffic fill service repeats millions of times is not
a cold full-chip solve but a small *engineering change order*: a handful
of windows of an already-solved layout are edited and the fill must be
brought back to optimality.  :func:`eco_refill` does exactly that:

1. **Diff** the parent and edited layouts into a dirty-window mask
   (:func:`repro.layout.diff.diff_layouts`).
2. **Dilate** the dirty set by the UNet's receptive-field radius plus a
   coupling radius into the *free* set — the only windows whose fill is
   allowed to move.
3. **Split** the free set into 8-connected components
   (:func:`repro.layout.diff.connected_components`): two edits on
   opposite chip corners become two *sites*, each re-optimised through a
   small cropped pass of its own instead of one bounding box spanning the
   whole chip.
4. **Freeze** everything else per site by pinning its box constraints to
   the warm start (``lower == upper == x0``) and run one SQP per site.
5. **Evaluate** the global quality objective through ONE cropped network
   pass per iteration (:meth:`CmpNeuralNetwork.evaluate_region`): heights
   outside the site's receptive halo provably equal the heights of the
   warm start, so they are composed in as constants.  All sites share a
   single monolithic base forward — their complements are frozen at the
   same warm start.

Guarantees (argued in DESIGN.md, tested in ``tests/core/test_eco.py``):

* **Bitwise outside the halo.** Fill outside the free set is the parent
  fill, bit for bit — frozen coordinates are never moved by the SQP
  (``np.clip(x, a, a) == a`` exactly and pinned bounds zero every search
  direction component).  The driver *checks* the identity per site
  (raising instead of silently repairing a violation) and re-asserts it
  structurally with ``np.where`` before returning.
* **Full-refill equivalence inside.** Per evaluation, the cropped
  objective matches the monolithic one to float round-off at every free
  coordinate (score *and* gradient — the receptive field of a free
  window lies inside the evaluated core by construction).  The refined
  region therefore matches what a full warm-started refill that moves
  only those windows would produce, up to SQP path round-off; the gap to
  an *unconstrained* full refill is governed by the weak global coupling
  of the planarity means/variances and bounded by the documented
  tolerance (see DESIGN.md).

An empty diff short-circuits to a pure cache hit: the parent
:class:`FillResult` is returned (re-tagged) with zero evaluations.  The
fill contract holds at every return: the parent fill is checked against
its layout up front (a cache hit returns it, a refill keeps it outside
the free set) and a refilled result against the edited layout, each
raising :class:`~repro.layout.layout.FillContractError` on a breach.
"""

from __future__ import annotations

import time

import numpy as np

from ..layout.diff import (LayoutDiff, connected_components, diff_layouts,
                           dilate_mask)
from ..layout.layout import Layout
from ..optimize.sqp import SqpOptimizer
from ..surrogate.network import CmpNeuralNetwork
from .degradation import PerformanceDegradation
from .msp_sqp import QualityEvaluation, QualityModel
from .problem import FillProblem
from .result import FillResult

__all__ = ["EcoQualityModel", "eco_refill"]

#: Method tag recorded on incremental results.
ECO_METHOD = "neurfill-eco"


class EcoQualityModel:
    """``S_qual`` twin of :class:`QualityModel` for a frozen-complement fill.

    Planarity is evaluated through one cropped network pass against the
    constant base heights (:meth:`CmpNeuralNetwork.evaluate_region`); the
    analytic degradation term is cheap and runs on the full fill.  The
    gradient is zeroed outside the free mask — those coordinates are
    constants of the incremental problem.

    Attributes:
        lower/upper: ECO box constraints — the problem's bounds on free
            coordinates, pinned to ``base_fill`` elsewhere.
        evaluations: cropped network passes spent (same accounting as
            :class:`QualityModel`).
    """

    def __init__(self, problem: FillProblem, network: CmpNeuralNetwork,
                 base_fill: np.ndarray, free: np.ndarray,
                 base_heights: np.ndarray | None = None):
        if network.grid_shape != problem.layout.shape:
            raise ValueError(
                f"network bound to shape {network.grid_shape}, problem layout "
                f"is {problem.layout.shape}")
        self.problem = problem
        self.network = network
        self.weights = problem.coefficients.planarity_weights()
        self.degradation = PerformanceDegradation(
            problem.layout, problem.coefficients)
        free = np.asarray(free, dtype=bool)
        if free.shape != problem.layout.shape[1:]:
            raise ValueError(
                f"free mask must have grid shape {problem.layout.shape[1:]}, "
                f"got {free.shape}")
        self.free2d = free
        self.free = np.broadcast_to(free, problem.layout.shape)
        base_fill = np.asarray(base_fill, dtype=float)
        self.base_fill = base_fill
        self.lower = np.where(self.free, problem.lower, base_fill)
        self.upper = np.where(self.free, problem.upper, base_fill)
        self.region = network.plan_region(free)
        if self.region is None:
            raise ValueError("free mask is empty — nothing to re-optimise "
                             "(an empty ECO should be served from cache)")
        if base_heights is None:
            self.base_heights = network.predict_heights(base_fill)
            self.evaluations = 1  # the base forward above
        else:
            # Shared monolithic base forward (the multi-site driver runs
            # it once for all sites: every site freezes its complement at
            # the same warm start, so the base heights coincide).
            base_heights = np.asarray(base_heights, dtype=float)
            if base_heights.shape != problem.layout.shape:
                raise ValueError(
                    f"base_heights must have layout shape "
                    f"{problem.layout.shape}, got {base_heights.shape}")
            self.base_heights = base_heights
            self.evaluations = 0

    def evaluate(self, fill: np.ndarray,
                 want_grad: bool = True) -> QualityEvaluation:
        self.evaluations += 1
        fill = np.clip(fill, self.lower, self.upper)
        plan = self.network.evaluate_region(
            fill, self.region, self.base_heights, self.weights,
            want_grad=want_grad)
        pd_breakdown, pd_grad = self.degradation.evaluate(
            fill, want_grad=want_grad)
        quality = plan.s_plan + pd_breakdown.s_pd
        gradient = None
        if want_grad:
            gradient = np.where(self.free, plan.gradient + pd_grad, 0.0)
        return QualityEvaluation(
            quality=quality, gradient=gradient,
            planarity=plan.breakdown, degradation=pd_breakdown,
        )

    # Convenience adapters matching QualityModel -----------------------
    def quality(self, fill: np.ndarray) -> float:
        return self.evaluate(fill, want_grad=False).quality

    def value_and_grad(self, fill: np.ndarray) -> tuple[float, np.ndarray]:
        ev = self.evaluate(fill, want_grad=True)
        return ev.quality, ev.gradient


def _parent_fill(parent: FillResult | np.ndarray,
                 shape: tuple[int, int, int]) -> np.ndarray:
    fill = parent.fill if isinstance(parent, FillResult) else parent
    fill = np.asarray(fill, dtype=float)
    if fill.shape != shape:
        raise ValueError(
            f"parent fill shape {fill.shape} != layout shape {shape}")
    return fill


def eco_refill(
    problem: FillProblem,
    network: CmpNeuralNetwork,
    parent_layout: Layout,
    parent: FillResult | np.ndarray,
    *,
    optimizer: SqpOptimizer | None = None,
    coupling_radius: int | None = None,
) -> FillResult:
    """Re-synthesise fill incrementally after an ECO edit.

    Args:
        problem: the fill problem on the **edited** layout.
        network: surrogate bound to the **edited** layout (its extraction
            constants must reflect the edit).
        parent_layout: the layout the parent solution was synthesised for.
        parent: the parent solution — a :class:`FillResult` (enables the
            pure cache hit on an empty diff) or a bare ``(L, N, M)`` fill.
        optimizer: SQP configuration; defaults to the NeurFill default.
        coupling_radius: extra dilation beyond the receptive-field radius
            granted to the optimiser, covering the second gradient hop
            (the gradient at a window reaches another receptive field past
            the windows whose heights changed).  Defaults to the
            receptive-field radius itself; 0 is valid and keeps every
            guarantee except closeness to the unconstrained full refill.

    Returns:
        A :class:`FillResult` tagged ``neurfill-eco`` whose ``extras["eco"]``
        records the dirty/free geometry and per-site SQP diagnostics
        (``num_sites``/``sites``: one cropped pass per 8-connected
        component of the free set; ``starts`` counts sites).  The reported
        quality/planarity/degradation come from one final *monolithic*
        evaluation, so they are directly comparable to full-refill results.
    """
    t0 = time.perf_counter()
    if network.grid_shape != problem.layout.shape:
        raise ValueError(
            f"network bound to shape {network.grid_shape}, edited layout is "
            f"{problem.layout.shape} — bind the surrogate to the edited layout")
    if not np.array_equal(network.consts.density,
                          problem.layout.density_stack()):
        raise ValueError(
            "network extraction constants do not match the edited layout — "
            "bind the surrogate to the edited layout, not the parent")

    diff = diff_layouts(parent_layout, problem.layout)
    parent_fill = _parent_fill(parent, problem.layout.shape)
    # The parent must be a valid fill of its own layout: a cache hit
    # returns it as-is (an empty diff means identical slack), and a
    # refill keeps it bit for bit outside the free set.
    parent_layout.validate_fill(parent_fill)

    if diff.is_empty:
        # Pure cache hit: identical window features => identical optimum.
        runtime = time.perf_counter() - t0
        extras = {"eco": _eco_extras(diff, None, 0, 0, cache_hit=True)}
        if isinstance(parent, FillResult):
            return FillResult(
                method=ECO_METHOD, fill=parent.fill.copy(),
                quality=parent.quality, planarity=parent.planarity,
                degradation=parent.degradation, runtime_s=runtime,
                evaluations=0, starts=0, extras=extras)
        final = QualityModel(problem, network).evaluate(
            parent_fill, want_grad=False)
        return FillResult(
            method=ECO_METHOD, fill=parent_fill.copy(), quality=final.quality,
            planarity=final.planarity, degradation=final.degradation,
            runtime_s=time.perf_counter() - t0, evaluations=1, starts=0,
            extras=extras)

    rf_radius = network.receptive_halo()
    coupling = rf_radius if coupling_radius is None else int(coupling_radius)
    if coupling < 0:
        raise ValueError(f"coupling_radius must be >= 0, got {coupling}")
    free2d = dilate_mask(diff.dirty, rf_radius + coupling)
    sites = connected_components(free2d)

    # Warm start: the parent fill, clipped into the edited problem's box
    # on free coordinates only (an edit can shrink slack there).  Frozen
    # coordinates keep the parent value bit for bit; the parent solve
    # already satisfied the unchanged bounds outside the free set.
    free3d = np.broadcast_to(free2d, problem.layout.shape)
    x0 = np.where(free3d, problem.clip(parent_fill), parent_fill)

    # One shared monolithic base forward: every site freezes its
    # complement at the same warm start, so all sites compose their
    # cropped passes against the same base heights.
    base_heights = network.predict_heights(x0)
    evaluations = 1
    optimizer = optimizer or SqpOptimizer(max_iter=60, tol=1e-9)

    fill = x0.copy()
    site_records: list[dict] = []
    iterations_total = 0
    converged_all = True
    for site2d in sites:
        model = EcoQualityModel(problem, network, x0, site2d,
                                base_heights=base_heights)
        sqp = optimizer.maximize(
            model.value_and_grad, x0, model.lower, model.upper,
            fun_value=model.quality)
        site3d = np.broadcast_to(site2d, fill.shape)
        frozen = ~site3d
        # The pinned bounds force this identity; check it per site so a
        # violation fails loudly instead of being silently repaired.
        if not np.array_equal(sqp.x[frozen], x0[frozen]):
            raise RuntimeError(
                "ECO site optimisation moved frozen coordinates — the "
                "bitwise-outside guarantee is broken")
        fill = np.where(site3d, sqp.x, fill)
        evaluations += model.evaluations
        iterations_total += int(sqp.iterations)
        converged_all &= bool(sqp.converged)
        region = model.region
        site_records.append({
            "free_windows": int(site2d.sum()),
            "core": [region.r0, region.r1, region.c0, region.c1],
            "crop": [region.sr0, region.sr1, region.sc0, region.sc1],
            "sqp_iterations": int(sqp.iterations),
            "sqp_converged": bool(sqp.converged),
        })

    # Re-assert the frozen-complement identity structurally so the
    # bitwise guarantee cannot erode.
    fill = np.where(free3d, fill, parent_fill)
    problem.layout.validate_fill(fill)

    # Report quality from one monolithic evaluation: comparable to full
    # refills and independent of the region composition.
    final = QualityModel(problem, network).evaluate(fill, want_grad=False)
    extras = {"eco": _eco_extras(diff, free2d, rf_radius, coupling,
                                 cache_hit=False, sites=site_records,
                                 sqp_iterations=iterations_total,
                                 sqp_converged=converged_all)}
    return FillResult(
        method=ECO_METHOD, fill=fill, quality=final.quality,
        planarity=final.planarity, degradation=final.degradation,
        runtime_s=time.perf_counter() - t0,
        evaluations=evaluations + 1, starts=len(sites), extras=extras)


def _eco_extras(diff: LayoutDiff, free2d: np.ndarray | None,
                rf_radius: int, coupling: int, *, cache_hit: bool,
                sites: list[dict] | None = None,
                sqp_iterations: int = 0, sqp_converged: bool = True) -> dict:
    total = int(diff.dirty.size)
    extras = {
        "cache_hit": cache_hit,
        "dirty_windows": diff.num_dirty,
        "dirty_fraction": diff.dirty_fraction,
        "changed_layers": list(diff.changed_layers),
        "total_windows": total,
        "rf_radius": int(rf_radius),
        "coupling_radius": int(coupling),
        "halo_radius": int(rf_radius + coupling),
        "sqp_iterations": int(sqp_iterations),
        "sqp_converged": bool(sqp_converged),
    }
    if free2d is not None:
        extras.update({
            "free_windows": int(free2d.sum()),
            "free_fraction": float(free2d.mean()),
            "num_sites": len(sites or ()),
            "sites": list(sites or ()),
        })
    return extras
