"""Fig. 6: the multi-modal quality topography of a two-window layout.

The paper plots the quality score over the two fill variables of a
layout with exactly two fillable windows and marks several peak regions —
the motivation for multi-modal starting points.  We sweep the same
surface through the real simulator, locate its local maxima on the grid,
and check NMMSO finds the global one.
"""

import numpy as np

from _common import write_output
from repro.baselines import SimulatorQuality
from repro.cmp import CmpSimulator
from repro.core import FillProblem, ScoreCoefficients
from repro.layout import make_two_fillable_window_layout
from repro.optimize import Nmmso

GRID = 17


def _grid_local_maxima(surface: np.ndarray) -> list[tuple[int, int]]:
    """Interior + border local maxima of a 2-D grid (8-neighbourhood)."""
    peaks = []
    n, m = surface.shape
    for i in range(n):
        for j in range(m):
            val = surface[i, j]
            neigh = surface[max(0, i - 1): i + 2, max(0, j - 1): j + 2]
            if val >= neigh.max() - 1e-12:
                peaks.append((i, j))
    return peaks


def test_fig6_topography(benchmark):
    layout = make_two_fillable_window_layout()
    simulator = CmpSimulator()
    problem = FillProblem(layout,
                          ScoreCoefficients.calibrated(layout, simulator))
    model = SimulatorQuality(problem, simulator)
    (i1, j1), (i2, j2) = layout.metadata["fillable"]
    slack = layout.slack_stack()
    s1, s2 = slack[0, i1, j1], slack[0, i2, j2]

    def sweep():
        surface = np.zeros((GRID, GRID))
        for a in range(GRID):
            for b in range(GRID):
                fill = np.zeros(layout.shape)
                fill[0, i1, j1] = s1 * a / (GRID - 1)
                fill[0, i2, j2] = s2 * b / (GRID - 1)
                surface[a, b] = model.quality(fill)
        return surface

    surface = benchmark.pedantic(sweep, rounds=1, iterations=1)
    peaks = _grid_local_maxima(surface)
    best_idx = np.unravel_index(np.argmax(surface), surface.shape)

    def q2(xs):
        """NMMSO's batched objective, one simulator polish per row."""
        values = []
        for x in xs:
            fill = np.zeros(layout.shape)
            fill[0, i1, j1] = x[0]
            fill[0, i2, j2] = x[1]
            values.append(model.quality(fill))
        return np.array(values)

    found = Nmmso(q2, np.zeros(2), np.array([s1, s2]),
                  max_evaluations=700, merge_distance=0.12, seed=0).run()

    lines = [
        f"Fig. 6 — quality topography over (x1, x2), {GRID}x{GRID} sweep",
        f"grid local maxima: {len(peaks)} at "
        + ", ".join(f"({a / (GRID - 1):.2f}, {b / (GRID - 1):.2f})"
                    for a, b in peaks[:6]),
        f"grid optimum: ({best_idx[0] / (GRID - 1):.2f}, "
        f"{best_idx[1] / (GRID - 1):.2f}) quality={surface.max():.4f}",
        f"NMMSO located {len(found.optima)} peak region(s); "
        f"best quality={found.best.value:.4f} "
        f"after {found.evaluations} evaluations",
    ]
    write_output("fig6_topography", "\n".join(lines))

    # Shape: the surface is multi-modal (at least 2 local maxima) and
    # NMMSO's best is within tolerance of the dense-grid optimum.
    assert len(peaks) >= 2
    assert found.best.value >= surface.max() - 0.01
