"""Final solution scoring against the real CMP simulator (Table III).

The optimizer sees the surrogate; the *verdict* comes from the full-chip
simulator, exactly as the paper reports Table III.  This module computes
every Table III column for a finished fill:

``DeltaH``, Performance (overlay score), Variation, Line Deviation,
Outliers, File Size, Runtime, Memory, Quality and Overall.

Score conventions (documented assumptions — see EXPERIMENTS.md):

* Quality is the weighted mean of the five quality criteria (overlay,
  fill amount, variance, line deviation, outliers), i.e. the Eq. 5a score
  normalised by its total alpha (0.75) so it reads on a 0-1 scale.
* Overall is the full contest-weighted sum over all eight criteria
  (alphas sum to 1.0).
* The Performance column is the overlay score ``f_ov``.
* Output file size is the input size plus ~50 bytes per inserted dummy
  rectangle (a GDSII BOUNDARY record).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cmp.simulator import CmpResult, CmpSimulator
from ..layout.fill_regions import compute_slack_regions
from ..layout.layout import DUMMY_SIDE_UM, Layout, dummy_count
from ..surrogate.objectives import outliers_hard
from .degradation import overlay_area
from .problem import FillProblem, ScoreCoefficients

#: Approximate GDSII bytes per dummy rectangle.
BYTES_PER_DUMMY: float = 50.0


def _score(t: float, beta: float) -> float:
    return min(1.0, max(0.0, 1.0 - t / beta))


@dataclass
class SolutionScore:
    """All Table III columns for one method on one design."""

    method: str
    delta_h: float  # Angstrom, max per-layer height range
    overlay: float
    fill_amount: float
    sigma: float
    line: float
    outlier: float
    output_file_mb: float
    runtime_s: float
    memory_gb: float
    score_performance: float  # f_ov
    score_fill: float
    score_variation: float
    score_line: float
    score_outliers: float
    score_filesize: float
    score_runtime: float
    score_memory: float
    quality: float
    overall: float


def planarity_metrics(heights: np.ndarray) -> tuple[float, float, float, float]:
    """``(delta_h, sigma, line_deviation, outliers)`` from a height stack."""
    L = heights.shape[0]
    delta_h = max(float(heights[l].max() - heights[l].min()) for l in range(L))
    sigma = float(sum(np.var(heights[l]) for l in range(L)))
    line = 0.0
    for l in range(L):
        col_mean = heights[l].mean(axis=0, keepdims=True)
        line += float(np.abs(heights[l] - col_mean).sum())
    return delta_h, sigma, line, outliers_hard(heights)


def estimate_output_file_mb(layout: Layout, fill: np.ndarray,
                            dummy_side: float = DUMMY_SIDE_UM) -> float:
    """Input file size plus the serialised dummies."""
    n_dummies = float(dummy_count(fill, dummy_side).sum())
    return layout.file_size_mb + n_dummies * BYTES_PER_DUMMY / 1e6


def evaluate_solution(
    problem: FillProblem,
    fill: np.ndarray,
    method: str,
    simulator: CmpSimulator | None = None,
    runtime_s: float = 0.0,
    memory_gb: float = 0.0,
    cmp_result: CmpResult | None = None,
) -> SolutionScore:
    """Score a finished fill with the real simulator.

    Args:
        problem: layout + coefficients.
        fill: fill areas (clipped into the feasible box before scoring).
        method: row label.
        simulator: teacher simulator (default calibration if omitted).
        runtime_s / memory_gb: measured synthesis cost for the runtime and
            memory criteria.
        cmp_result: pre-computed simulation of this exact fill (skips the
            internal simulation when provided); one layout's ``(L, N, M)``
            result, e.g. ``batch.entry(p)`` of a ``simulate_batch``.

    Raises:
        ValueError: ``cmp_result`` is not shaped like the layout (a whole
            batch would read its batch axis as layers and score wrong).
    """
    layout = problem.layout
    if cmp_result is not None and cmp_result.height.shape != layout.shape:
        raise ValueError(
            f"cmp_result height has shape {cmp_result.height.shape}, but "
            f"the layout is {layout.shape}; score one batch entry at a "
            "time (CmpResult.entry)")
    c: ScoreCoefficients = problem.coefficients
    fill = problem.clip(fill)
    if cmp_result is None:
        simulator = simulator or CmpSimulator()
        cmp_result = simulator.simulate_layout(layout, fill)

    delta_h, sigma, line, ol = planarity_metrics(cmp_result.height)
    regions = compute_slack_regions(layout)
    ov, _, _ = overlay_area(fill, regions)
    fa = float(fill.sum())
    out_mb = estimate_output_file_mb(layout, fill)

    s_perf = _score(ov, c.beta_overlay)
    s_fill = _score(fa, c.beta_fill)
    s_var = _score(sigma, c.beta_sigma)
    s_line = _score(line, c.beta_line)
    s_ol = _score(ol, c.beta_outlier)
    s_fs = _score(out_mb, c.beta_filesize)
    s_rt = _score(runtime_s, c.beta_runtime)
    s_mem = _score(memory_gb, c.beta_memory)

    quality_weighted = (
        c.alpha_overlay * s_perf + c.alpha_fill * s_fill
        + c.alpha_sigma * s_var + c.alpha_line * s_line
        + c.alpha_outlier * s_ol
    )
    quality = quality_weighted / c.quality_alpha_total
    overall = (
        quality_weighted
        + c.alpha_filesize * s_fs + c.alpha_runtime * s_rt
        + c.alpha_memory * s_mem
    ) / c.overall_alpha_total

    return SolutionScore(
        method=method, delta_h=delta_h, overlay=ov, fill_amount=fa,
        sigma=sigma, line=line, outlier=ol, output_file_mb=out_mb,
        runtime_s=runtime_s, memory_gb=memory_gb,
        score_performance=s_perf, score_fill=s_fill, score_variation=s_var,
        score_line=s_line, score_outliers=s_ol, score_filesize=s_fs,
        score_runtime=s_rt, score_memory=s_mem,
        quality=quality, overall=overall,
    )
