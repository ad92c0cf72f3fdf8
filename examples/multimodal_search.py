"""Multi-modal quality landscape of a two-fillable-window layout (Fig. 6).

The paper motivates multi-modal starting points with the quality score of
a layout that has exactly two fillable windows: the score surface over
``(x_1, x_2)`` has several peak regions, so a single-start optimizer can
land on a suboptimal one.  This example

1. builds the two-window toy layout,
2. sweeps the quality score on a dense grid (through the real simulator),
3. renders the topography as ASCII art, and
4. runs NMMSO to locate the peaks — compare them against the grid.

Run:  python examples/multimodal_search.py
"""

import numpy as np

from repro.baselines import SimulatorQuality
from repro.cmp import CmpSimulator
from repro.core import FillProblem, ScoreCoefficients
from repro.layout import make_two_fillable_window_layout
from repro.optimize import Nmmso

GRID = 21
SHADES = " .:-=+*#%@"


def main() -> None:
    layout = make_two_fillable_window_layout()
    simulator = CmpSimulator()
    coefficients = ScoreCoefficients.calibrated(layout, simulator)
    problem = FillProblem(layout, coefficients)
    model = SimulatorQuality(problem, simulator)

    (i1, j1), (i2, j2) = layout.metadata["fillable"]
    slack = layout.slack_stack()
    s1 = slack[0, i1, j1]
    s2 = slack[0, i2, j2]
    print(f"two fillable windows, slack = {s1:.0f} and {s2:.0f} um^2")

    print("\n== Quality score topography (x1 right, x2 up)")
    surface = np.zeros((GRID, GRID))
    for a in range(GRID):
        for b in range(GRID):
            fill = np.zeros(layout.shape)
            fill[0, i1, j1] = s1 * a / (GRID - 1)
            fill[0, i2, j2] = s2 * b / (GRID - 1)
            surface[b, a] = model.quality(fill)
    lo, hi = surface.min(), surface.max()
    for b in reversed(range(GRID)):
        row = "".join(
            SHADES[int((surface[b, a] - lo) / (hi - lo + 1e-12) * (len(SHADES) - 1))]
            for a in range(GRID)
        )
        print(f"  {row}")
    besta, bestb = np.unravel_index(np.argmax(surface.T), (GRID, GRID))
    print(f"grid optimum: x1={besta / (GRID - 1):.2f}*s1, "
          f"x2={bestb / (GRID - 1):.2f}*s2, quality={hi:.4f}")

    print("\n== NMMSO multi-modal search over the same 2-D problem")

    def quality_2d(xs):
        """NMMSO's batched objective: one quality score per row."""
        values = []
        for x in xs:
            fill = np.zeros(layout.shape)
            fill[0, i1, j1] = x[0]
            fill[0, i2, j2] = x[1]
            values.append(model.quality(fill))
        return np.array(values)

    search = Nmmso(
        quality_2d, lower=np.zeros(2), upper=np.array([s1, s2]),
        max_evaluations=800, merge_distance=0.12, seed=0,
    )
    found = search.run()
    print(f"{found.evaluations} evaluations, "
          f"{len(found.optima)} peak regions located:")
    for k, opt in enumerate(found.optima[:6]):
        print(f"  peak {k}: x1={opt.x[0] / s1:.2f}*s1  x2={opt.x[1] / s2:.2f}*s2  "
              f"quality={opt.value:.4f}")
    gap = hi - found.best.value
    print(f"best located peak is within {gap:.4f} of the dense-grid optimum")


if __name__ == "__main__":
    main()
