"""Prior-knowledge-based (PKB) starting-point generation (Section IV-C).

Modified from rule-based target density planning [10]: pick a target
density ``td_l`` per layer, fill every window up to it (Eq. 18), and
linearly search the target over its feasible range, keeping the candidate
with the best quality score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..layout.layout import Layout
from ..obs import trace as obs_trace

#: Batched scorer: a ``(P, L, N, M)`` stack of fill candidates -> their
#: ``(P,)`` quality scores (higher is better).
QualityFn = Callable[[np.ndarray], np.ndarray]


def fill_for_target_density(layout: Layout, targets: np.ndarray) -> np.ndarray:
    """Eq. 18: the maximum-uniformity fill for per-layer targets ``td_l``.

    Windows denser than the target get nothing; windows that cannot reach
    it are filled to their slack; the rest are topped up exactly.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (layout.num_layers,):
        raise ValueError(
            f"expected {layout.num_layers} per-layer targets, got shape {targets.shape}"
        )
    area = layout.grid.window_area
    rho = layout.density_stack()
    slack = layout.slack_stack()
    wanted = (targets[:, None, None] - rho) * area
    return np.clip(wanted, 0.0, slack)


def target_density_range(layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """Feasible per-layer target range: ``[min density, max reachable]``."""
    rho = layout.density_stack()
    reach = rho + layout.slack_stack() / layout.grid.window_area
    lo = rho.min(axis=(1, 2))
    hi = reach.max(axis=(1, 2))
    return lo, hi


@dataclass
class PkbResult:
    """Best candidate of the linear target-density search."""

    fill: np.ndarray
    targets: np.ndarray
    quality: float
    candidates_evaluated: int


def pkb_starting_point(
    layout: Layout,
    quality_fn: QualityFn,
    num_candidates: int = 9,
) -> PkbResult:
    """Linear search of the target layer density (Section IV-C).

    Candidates interpolate each layer's target between its minimum density
    and maximum reachable density with a shared fraction (the paper's 1-D
    "linear search of target layer density"); the candidate with the best
    quality becomes the starting point, the first one on a tie.

    Args:
        layout: target layout.
        quality_fn: batched scorer (:data:`QualityFn`), called once with
            all ``num_candidates`` fills stacked ``(P, L, N, M)``; e.g.
            one batched simulator polish, or surrogate planarity +
            analytic degradation row by row.
        num_candidates: grid size of the linear search.
    """
    if num_candidates < 1:
        raise ValueError("need at least one candidate")
    lo, hi = target_density_range(layout)
    targets = [lo + frac * (hi - lo)
               for frac in np.linspace(0.0, 1.0, num_candidates)]
    fills = np.stack([fill_for_target_density(layout, t) for t in targets])
    with obs_trace.span("core.select", cat="core", decision="pkb-rank",
                        candidates=num_candidates):
        scores = np.asarray(quality_fn(fills), dtype=float)
    if scores.shape != (num_candidates,):
        raise ValueError(
            f"quality_fn must return {num_candidates} scores, one per "
            f"candidate; got shape {scores.shape}")
    # argmax returns the first maximum, as a strict ``>`` scan would.
    best = int(np.argmax(scores))
    return PkbResult(
        fill=fills[best], targets=targets[best],
        quality=float(scores[best]), candidates_evaluated=num_candidates,
    )
