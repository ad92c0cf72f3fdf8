"""Problem formulation: score coefficients (Table II) and the fill problem.

The quality score (Eq. 5) combines planarity scores (height variance,
line deviation, outliers — computed on the post-CMP height profile) with
performance-degradation scores (overlay, fill amount).  The overall
contest score adds file size, runtime and memory criteria.  Every
criterion ``t`` is scored as ``f(t) = max(0, 1 - t/beta)`` and weighted by
``alpha`` (Eq. 6); the ``alpha``/``beta`` pairs are benchmark-specific
(Table II).

The paper's literal Table II betas are calibrated to its proprietary
full-scale designs.  For our scaled synthetic designs
:func:`ScoreCoefficients.calibrated` re-derives betas from the *unfilled*
layout (beta = metric value at x = 0, so a score of 1 means "objective
fully repaired"), keeping the paper's alpha weights and relative
structure.  The literal paper values remain available via
:func:`paper_table2` for the Table II benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cmp.simulator import CmpSimulator
from ..layout.layout import Layout
from ..surrogate.objectives import PlanarityWeights, outliers_hard

#: Runtime beta, in seconds, that ``repro fill``/``eco``/``compare`` and
#: ``repro serve`` calibrate with (the paper's 20 min is for full-size
#: chips); one constant keeps served and one-shot scores bitwise equal.
BETA_RUNTIME_S = 60.0


@dataclass(frozen=True)
class ScoreCoefficients:
    """All ``alpha``/``beta`` pairs of one benchmark design (Table II).

    Betas share the units of their metric: um^2 for overlay/fill amount,
    Angstrom^2 for variance, Angstrom for line deviation and outliers,
    MB for file size, seconds for runtime, GB for memory.
    """

    alpha_overlay: float = 0.15
    beta_overlay: float = 2400724.0
    alpha_fill: float = 0.05
    beta_fill: float = 2400724.0
    alpha_sigma: float = 0.2
    beta_sigma: float = 209.0
    alpha_line: float = 0.2
    beta_line: float = 78132.0
    alpha_outlier: float = 0.15
    beta_outlier: float = 7.1
    alpha_filesize: float = 0.05
    beta_filesize: float = 32.8
    alpha_runtime: float = 0.15
    beta_runtime: float = 1200.0  # 20 minutes, in seconds
    alpha_memory: float = 0.05
    beta_memory: float = 8.0  # GB

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name.startswith("beta") and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def quality_alpha_total(self) -> float:
        """Total weight of the five quality criteria (0.75 in Table II)."""
        return (
            self.alpha_overlay + self.alpha_fill + self.alpha_sigma
            + self.alpha_line + self.alpha_outlier
        )

    @property
    def overall_alpha_total(self) -> float:
        return (
            self.quality_alpha_total
            + self.alpha_filesize + self.alpha_runtime + self.alpha_memory
        )

    def planarity_weights(self) -> PlanarityWeights:
        """The subset consumed by the CMP neural network's merging layer."""
        return PlanarityWeights(
            alpha_sigma=self.alpha_sigma, beta_sigma=self.beta_sigma,
            alpha_line=self.alpha_line, beta_line=self.beta_line,
            alpha_outlier=self.alpha_outlier, beta_outlier=self.beta_outlier,
        )

    @classmethod
    def calibrated(
        cls,
        layout: Layout,
        simulator: CmpSimulator | None = None,
        headroom: float = 2.0,
        **overrides,
    ) -> "ScoreCoefficients":
        """Re-derive betas for a (scaled) layout from its unfilled metrics.

        * ``beta_sigma`` / ``beta_line`` / ``beta_outlier``: ``headroom``
          times the unfilled layout's own planarity metrics.  The headroom
          keeps every candidate the optimizer visits inside the linear
          band of Eq. 6 (the score saturates to 0 only for solutions
          *worse* than doing nothing twice over), mirroring Table III
          where even the rule-based baselines score positive on every
          criterion.
        * ``beta_overlay`` / ``beta_fill``: the total slack area (Table II
          uses equal betas for both, as does this), so the fill score is
          the unfilled slack fraction.
        * ``beta_filesize``: 2x the input file size (Table II's pattern).
        * runtime/memory betas keep the paper's 20 min / 8 GB.
        """
        if headroom <= 0:
            raise ValueError(f"headroom must be positive, got {headroom}")
        simulator = simulator or CmpSimulator()
        result = simulator.simulate_layout(layout)
        h = result.height
        sigma0 = float(sum(np.var(h[l]) for l in range(h.shape[0])))
        line0 = 0.0
        for l in range(h.shape[0]):
            col_mean = h[l].mean(axis=0, keepdims=True)
            line0 += float(np.abs(h[l] - col_mean).sum())
        ol0 = outliers_hard(h)
        slack_total = float(layout.slack_stack().sum())
        # Outlier betas are ~1e-3 of the line-deviation beta in Table II;
        # keep that ratio as the floor so the outlier score is strict but
        # not a cliff when the unfilled baseline happens to be ~0.
        beta_ol = headroom * max(ol0, 1e-3 * max(line0, 1.0))
        base = cls(
            beta_sigma=max(headroom * sigma0, 1.0),
            beta_line=max(headroom * line0, 1.0),
            beta_outlier=beta_ol,
            beta_overlay=max(slack_total, 1.0),
            beta_fill=max(slack_total, 1.0),
            beta_filesize=max(2.0 * layout.file_size_mb, 0.1),
        )
        return replace(base, **overrides) if overrides else base


#: Literal Table II rows of the paper (file-size betas in MB).
_PAPER_TABLE2 = {
    "A": ScoreCoefficients(
        beta_overlay=2400724.0, beta_fill=2400724.0, beta_sigma=209.0,
        beta_line=78132.0, beta_outlier=7.1, beta_filesize=32.8,
    ),
    "B": ScoreCoefficients(
        beta_overlay=6596491.0, beta_fill=6596491.0, beta_sigma=133.0,
        beta_line=23616.0, beta_outlier=25.0, beta_filesize=1897.4,
    ),
    "C": ScoreCoefficients(
        beta_overlay=3232445.0, beta_fill=3232445.0, beta_sigma=105.0,
        beta_line=17281.0, beta_outlier=17.0, beta_filesize=161.2,
    ),
}


def paper_table2(design: str) -> ScoreCoefficients:
    """The paper's literal Table II coefficients for design A, B or C."""
    try:
        return _PAPER_TABLE2[design.upper()]
    except KeyError:
        raise ValueError(f"unknown design {design!r}; expected A, B or C")


@dataclass
class FillProblem:
    """One dummy-filling instance: layout + score coefficients.

    Exposes the box constraints of Eq. 5d and convenience accessors used
    by every synthesis method (NeurFill and the baselines alike).
    """

    layout: Layout
    coefficients: ScoreCoefficients

    @property
    def lower(self) -> np.ndarray:
        return np.zeros(self.layout.shape)

    @property
    def upper(self) -> np.ndarray:
        return self.layout.slack_stack()

    @property
    def num_variables(self) -> int:
        return int(np.prod(self.layout.shape))

    def clip(self, fill: np.ndarray) -> np.ndarray:
        """Project a fill vector into the feasible box."""
        return np.clip(fill, self.lower, self.upper)

    def feasible(self, fill: np.ndarray, atol: float = 1e-6) -> bool:
        return bool(
            fill.shape == self.layout.shape
            and np.all(fill >= -atol)
            and np.all(fill <= self.upper + atol)
        )
