"""Four-type fillable slack regions (paper Fig. 5) and fill allocation.

Overlay capacitance only matters in the vertical direction, so the paper
splits each window's slack by what sits directly above and below:

====  ===========  ===========
Type  layer l+1    layer l-1
====  ===========  ===========
1     slack        slack
2     wire         slack
3     slack        wire
4     wire         wire
====  ===========  ===========

Dummies are inserted by priority type 1 -> 4 (a type-1 dummy overlaps no
wire at all).  Without polygon geometry we estimate the split by assuming
the neighbouring layers' copper is spatially uncorrelated with this layer's
slack inside a window, i.e. a fraction ``rho_up`` of the slack sits under
upper-layer wire.  Above the top layer and below the bottom layer there is
no wire, so those sides count as slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import Layout


@dataclass
class SlackRegions:
    """Per-window four-type slack areas, each of shape ``(L, N, M)``.

    ``non_overlap_slack`` is the paper's ``s*_{l,i,j}``: the area between
    layers ``l`` and ``l+1`` where both have slack and type-1 fill of the
    two layers can coexist without overlapping (Eq. 14).  Its last layer
    is unused (no layer above) and set to the full type-1 slack.
    """

    type1: np.ndarray
    type2: np.ndarray
    type3: np.ndarray
    type4: np.ndarray
    non_overlap_slack: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.type1 + self.type2 + self.type3 + self.type4

    def stacked(self) -> np.ndarray:
        """Types as one ``(4, L, N, M)`` array, priority order."""
        return np.stack([self.type1, self.type2, self.type3, self.type4])


def compute_slack_regions(layout: Layout) -> SlackRegions:
    """Split every window's slack into the four types of Fig. 5."""
    slack = layout.slack_stack()
    density = layout.density_stack()
    L = layout.num_layers

    rho_up = np.zeros_like(density)
    rho_down = np.zeros_like(density)
    if L > 1:
        rho_up[:-1] = density[1:]
        rho_down[1:] = density[:-1]

    type1 = slack * (1.0 - rho_up) * (1.0 - rho_down)
    type2 = slack * rho_up * (1.0 - rho_down)
    type3 = slack * (1.0 - rho_up) * rho_down
    type4 = slack * rho_up * rho_down

    # s*: area where type-1 fill of layer l and layer l+1 can both live
    # without overlapping each other.  Estimate as the union headroom of
    # the two layers' type-1 regions within the window.
    area = layout.grid.window_area
    non_overlap = np.copy(type1)
    if L > 1:
        both_open = (1.0 - density[:-1]) * (1.0 - density[1:])
        non_overlap[:-1] = np.minimum(type1[:-1] + type1[1:], both_open * area)
    return SlackRegions(type1, type2, type3, type4, non_overlap)


def allocate_fill_by_priority(
    fill: np.ndarray, regions: SlackRegions, atol: float = 1e-9
) -> np.ndarray:
    """Split total fill per window into the four types, priority 1 -> 4.

    Args:
        fill: total fill area per window, shape ``(L, N, M)``; must not
            exceed the summed slack of the four types (up to ``atol``).
        regions: output of :func:`compute_slack_regions`.

    Returns:
        ``(4, L, N, M)`` array ``x^1..x^4`` with ``sum == fill``.
    """
    capacity = regions.stacked()
    return allocate_into(fill, capacity, capacity.sum(axis=0), atol)


def allocate_into(fill: np.ndarray, capacity: np.ndarray, total: np.ndarray,
                  atol: float = 1e-9) -> np.ndarray:
    """:func:`allocate_fill_by_priority` with the stacked ``(4, L, N, M)``
    ``capacity`` and its sum over the types, ``total``, already built (an
    evaluator bound to one layout builds them once)."""
    if np.any(fill > total + atol):
        raise ValueError("fill exceeds total four-type slack capacity")
    remaining = np.clip(fill, 0.0, None)
    parts = np.zeros_like(capacity)
    for t in range(4):
        take = np.minimum(remaining, capacity[t])
        parts[t] = take
        remaining = remaining - take
    return parts
