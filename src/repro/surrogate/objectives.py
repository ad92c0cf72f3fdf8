"""Objective layers on top of the predicted height profile (Eqs. 1-3, 10).

Given stacked UNet outputs ``H_n`` of shape ``(K, L, N, M)`` — K
independent candidates, K = 1 for a single fill — these layers compute
the three planarity objectives per candidate with differentiable
torch-style ops:

* height variance ``sigma`` (Eq. 10a),
* line deviation ``sigma*`` (Eq. 10b, deviation from per-column means),
* outliers ``ol`` (Eq. 10c) — the hard hinge of Eq. 3 is non-
  differentiable, so the paper gates it with a sigmoid of gain ``eta``;
  we use the same smoothing, ``z * sigmoid(eta z) ~ max(0, z)``.

Note on the outlier threshold: Eq. 3 literally writes ``3 * sigma_l`` with
``sigma_l`` a *variance*, which is dimensionally a height only by abuse of
notation; we interpret the threshold as three standard deviations above
the layer mean (the conventional outlier rule) and expose it as a knob.

The merging layer then applies the contest score function (Eq. 6)
``f(t) = max(0, 1 - t / beta)`` and the weights ``alpha`` to produce the
planarity score ``S_plan`` (Eq. 5b).  Candidates never interact: every
reduction stays inside its ``(L, N, M)`` slab, so one ``backward`` on
the summed scores yields every candidate's gradient at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor

#: Default sigmoid gain for the smoothed outlier hinge (paper's eta).
DEFAULT_ETA: float = 0.5


def _check_heights(heights: Tensor) -> None:
    """Validate a stacked ``(K, L, N, M)`` height tensor."""
    if len(heights.shape) != 4:
        raise ValueError(f"heights must be (K, L, N, M), got {heights.shape}")


def height_variance(heights: Tensor) -> Tensor:
    """Eq. 1 / Eq. 10a: sum over layers of per-layer height variance,
    one value per candidate (``(K,)``)."""
    _check_heights(heights)
    return heights.var(axis=(2, 3)).sum(axis=1)


def line_deviation(heights: Tensor) -> Tensor:
    """Eq. 2 / Eq. 10b: total absolute deviation from per-column means,
    one value per candidate (``(K,)``).

    ``MEAN(H_n, 1)`` in the paper averages over the row index ``i``,
    giving one mean per column ``j`` of each layer.
    """
    _check_heights(heights)
    column_means = heights.mean(axis=2, keepdims=True)
    return (heights - column_means).abs().sum(axis=(1, 2, 3))


def outliers(heights: Tensor, eta: float = DEFAULT_ETA,
             threshold_sigmas: float = 3.0) -> Tensor:
    """Eq. 3 via the sigmoid smoothing of Eq. 10c, one total per
    candidate (``(K,)``).

    ``sum_l sum_ij smooth_hinge(H - mean_l - k * std_l)`` where the smooth
    hinge is ``z * sigmoid(eta * z)``.
    """
    _check_heights(heights)
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    mean = heights.mean(axis=(2, 3), keepdims=True)
    std = (heights.var(axis=(2, 3), keepdims=True) + 1e-12) ** 0.5
    excess = heights - mean - std * threshold_sigmas
    smooth = excess * F.sigmoid(excess * eta)
    return smooth.sum(axis=(1, 2, 3))


def outliers_hard(heights: np.ndarray, threshold_sigmas: float = 3.0) -> float:
    """Reference hard-hinge outliers (Eq. 3) for evaluation/reporting."""
    total = 0.0
    for layer in heights:
        mean = layer.mean()
        std = layer.std()
        total += float(np.maximum(0.0, layer - mean - threshold_sigmas * std).sum())
    return total


def score_function(value: Tensor | float, beta: float) -> Tensor | float:
    """Contest score ``f(t) = max(0, 1 - t / beta)`` (Eq. 6).

    Also capped at 1: the paper's metrics are non-negative so ``f <= 1``
    holds automatically there, but our smoothed outlier objective can dip
    slightly below zero and must not be rewarded for it.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if isinstance(value, Tensor):
        return F.minimum(F.maximum(1.0 - value * (1.0 / beta), 0.0), 1.0)
    return min(1.0, max(0.0, 1.0 - value / beta))


@dataclass(frozen=True)
class PlanarityWeights:
    """The ``alpha``/``beta`` pairs of Eq. 5b for one benchmark design."""

    alpha_sigma: float
    beta_sigma: float
    alpha_line: float
    beta_line: float
    alpha_outlier: float
    beta_outlier: float


@dataclass
class PlanarityBreakdown:
    """Raw objective values and scores from one forward evaluation."""

    sigma: float
    line: float
    outlier: float
    score_sigma: float
    score_line: float
    score_outlier: float
    s_plan: float


def planarity_terms(heights: Tensor, weights: PlanarityWeights,
                    eta: float = DEFAULT_ETA) -> dict[str, Tensor]:
    """Merging layer: ``(K, L, N, M)`` heights to named ``(K,)`` tensors —
    the objectives, their scores and ``S_plan`` (Eq. 5b), keyed like the
    fields of :class:`PlanarityBreakdown`."""
    sigma = height_variance(heights)
    line = line_deviation(heights)
    ol = outliers(heights, eta=eta)
    f_sigma = score_function(sigma, weights.beta_sigma)
    f_line = score_function(line, weights.beta_line)
    f_ol = score_function(ol, weights.beta_outlier)
    s_plan = (
        f_sigma * weights.alpha_sigma
        + f_line * weights.alpha_line
        + f_ol * weights.alpha_outlier
    )
    return {
        "sigma": sigma, "line": line, "outlier": ol,
        "score_sigma": f_sigma, "score_line": f_line, "score_outlier": f_ol,
        "s_plan": s_plan,
    }


def breakdowns_from_terms(
        terms: Mapping[str, np.ndarray]) -> list[PlanarityBreakdown]:
    """One :class:`PlanarityBreakdown` per candidate from the ``(K,)``
    term arrays of :func:`planarity_terms`."""
    names = [f.name for f in fields(PlanarityBreakdown)]
    return [
        PlanarityBreakdown(**{name: float(terms[name][k]) for name in names})
        for k in range(len(terms["s_plan"]))
    ]
