"""Window-granularity layout model consumed by the CMP simulator and filler.

A :class:`Layout` holds, for each metal layer, per-window pattern statistics
(wire density, fillable slack area, wire perimeter/width) plus per-layer
process facts (trench depth).  This is exactly the information the paper's
extraction layer pulls out of the GDS (Section IV-A: "density, average
width, length, perimeter of coppers ... pressure, heights of trench side
and bottom"), so downstream code never needs polygon geometry.

Dummy fill enters through :func:`apply_fill`, the single place that defines
how adding ``x`` um^2 of dummies to a window updates the pattern features.
The differentiable extraction layer in :mod:`repro.surrogate.extraction`
mirrors these formulas with autodiff tensors; tests assert the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import WindowGrid

#: Default side length (um) of a single square dummy shape used when
#: converting a fill *area* into dummy count / perimeter statistics.
DUMMY_SIDE_UM: float = 2.0

#: Upper bound on post-fill metal density; foundry rules forbid filling a
#: window to 100% copper.
MAX_FILL_DENSITY: float = 0.9


@dataclass
class LayerWindows:
    """Per-window pattern statistics of one metal layer.

    All 2-D arrays have shape ``(rows, cols)`` matching the layout grid.

    Attributes:
        name: layer label, e.g. ``"M1"``.
        density: wire (copper) area fraction in ``[0, 1)``.
        slack: fillable area per window in um^2 (the ``s_{l,i,j}`` of
            Eq. 5d); already excludes spacing-rule keep-outs.
        wire_perimeter: total copper perimeter per window in um.
        wire_width: average wire width per window in um.
        trench_depth: initial pattern step height in Angstroms (height of
            trench side minus trench bottom before polishing).
    """

    name: str
    density: np.ndarray
    slack: np.ndarray
    wire_perimeter: np.ndarray
    wire_width: np.ndarray
    trench_depth: float = 3000.0

    def __post_init__(self) -> None:
        shape = self.density.shape
        for label in ("slack", "wire_perimeter", "wire_width"):
            arr = getattr(self, label)
            if arr.shape != shape:
                raise ValueError(f"{label} shape {arr.shape} != density shape {shape}")
        # NaN fails every comparison, so finiteness is checked first.
        for label in ("density", "slack", "wire_perimeter", "wire_width"):
            arr = getattr(self, label)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{label} must be finite")
            if np.any(arr < 0):
                raise ValueError(f"{label} must be non-negative")
        if np.any(self.density > 1):
            raise ValueError("density must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.density.shape


class FillContractError(ValueError):
    """A fill breaks the contract every fill method keeps: layout shape,
    finite entries and ``0 <= fill <= slack`` (Eq. 5d)."""


@dataclass
class Layout:
    """A multi-layer chip layout at window granularity."""

    name: str
    grid: WindowGrid
    layers: list[LayerWindows]
    file_size_mb: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("layout needs at least one layer")
        for layer in self.layers:
            if layer.shape != self.grid.shape:
                raise ValueError(
                    f"layer {layer.name} shape {layer.shape} != grid {self.grid.shape}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(L, N, M)`` shape of every per-window stack."""
        return (self.num_layers, self.grid.rows, self.grid.cols)

    def density_stack(self) -> np.ndarray:
        """Wire density as an ``(L, N, M)`` array."""
        return np.stack([layer.density for layer in self.layers])

    def slack_stack(self) -> np.ndarray:
        """Fillable slack area (um^2) as an ``(L, N, M)`` array."""
        return np.stack([layer.slack for layer in self.layers])

    def perimeter_stack(self) -> np.ndarray:
        return np.stack([layer.wire_perimeter for layer in self.layers])

    def width_stack(self) -> np.ndarray:
        return np.stack([layer.wire_width for layer in self.layers])

    def trench_depths(self) -> np.ndarray:
        """Per-layer trench depth in Angstroms, shape ``(L,)``."""
        return np.array([layer.trench_depth for layer in self.layers])

    def validate_fill(self, fill: np.ndarray, atol: float = 1e-6) -> None:
        """Raise :class:`FillContractError` unless ``fill`` has the layout
        shape, is finite and lies within the Eq. 5d bounds
        ``0 <= fill <= slack`` (up to ``atol``)."""
        fill = np.asarray(fill)
        if fill.shape != self.shape:
            raise FillContractError(
                f"fill shape {fill.shape} != layout shape {self.shape}")
        if not np.all(np.isfinite(fill)):
            raise FillContractError("fill must be finite")
        slack = self.slack_stack()
        excess = np.maximum(fill - slack, -fill)
        if np.any(excess > atol):
            worst = tuple(int(i) for i in np.unravel_index(np.argmax(excess),
                                                           excess.shape))
            raise FillContractError(
                f"fill violates slack bounds by up to "
                f"{float(excess[worst]):.3g} um^2 (entry {worst})")


@dataclass
class FeatureStack:
    """Pattern features after dummy fill, as consumed by the CMP simulator.

    Every array has shape ``(L, N, M)`` for a single layout.  The CMP
    kernels operate over arbitrary leading axes, so a *batched* feature
    stack simply carries ``(B, L, N, M)`` arrays (build one with
    :func:`stack_features`) and flows through
    :meth:`repro.cmp.simulator.CmpSimulator.simulate_batch` unchanged.
    """

    density: np.ndarray
    perimeter: np.ndarray
    wire_width: np.ndarray
    trench_depth: np.ndarray  # broadcast per layer to (L, N, M)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.density.shape


def stack_features(stacks: "Sequence[FeatureStack]") -> FeatureStack:
    """Stack same-shape feature stacks along a new leading batch axis.

    The result's arrays have shape ``(B, *entry_shape)``; feed it to
    :meth:`repro.cmp.simulator.CmpSimulator.simulate_batch`.

    Raises:
        ValueError: if the sequence is empty or shapes disagree (layouts
            of different grids/layer counts cannot share one batch).
    """
    stacks = list(stacks)
    if not stacks:
        raise ValueError("stack_features needs at least one FeatureStack")
    shape = stacks[0].shape
    for k, entry in enumerate(stacks[1:], start=1):
        if entry.shape != shape:
            raise ValueError(
                f"feature stack {k} has shape {entry.shape}, expected "
                f"{shape}; batch entries must share one grid and layer "
                "count")
    return FeatureStack(
        density=np.stack([s.density for s in stacks]),
        perimeter=np.stack([s.perimeter for s in stacks]),
        wire_width=np.stack([s.wire_width for s in stacks]),
        trench_depth=np.stack([s.trench_depth for s in stacks]),
    )


def dummy_count(fill_area: np.ndarray, dummy_side: float = DUMMY_SIDE_UM) -> np.ndarray:
    """Number of square dummies implied by a fill area (fractional allowed)."""
    return fill_area / (dummy_side * dummy_side)


def apply_fill(
    layout: Layout,
    fill: np.ndarray | None = None,
    dummy_side: float = DUMMY_SIDE_UM,
) -> FeatureStack:
    """Update pattern features for a fill assignment ``x`` (Eq. 5d domain).

    This is the reproduction's reference implementation of the paper's
    extraction-layer feature update ("pattern-related parameters in L are
    updated with regard to fill amount x"):

    * density rises by ``x / window_area``;
    * perimeter rises by ``4 * dummy_side`` per inserted dummy;
    * average wire width moves toward ``dummy_side`` as dummies dominate
      the copper population (area-weighted mix).

    Args:
        layout: target layout.
        fill: fill areas in um^2, shape ``(L, N, M)``; ``None`` means no fill.
        dummy_side: side length of each square dummy in um.

    Returns:
        A :class:`FeatureStack` with post-fill features.
    """
    area = layout.grid.window_area
    density = layout.density_stack()
    perimeter = layout.perimeter_stack()
    width = layout.width_stack()
    depths = layout.trench_depths()[:, None, None] * np.ones(layout.grid.shape)

    if fill is not None:
        layout.validate_fill(fill)
        fill = np.clip(fill, 0.0, layout.slack_stack())
        new_density = density + fill / area
        n_dummy = dummy_count(fill, dummy_side)
        new_perimeter = perimeter + 4.0 * dummy_side * n_dummy
        wire_area = density * area
        total_area = wire_area + fill
        # Avoid 0/0 in empty windows; keep the original width there.
        safe_total = np.where(total_area > 0, total_area, 1.0)
        new_width = np.where(
            total_area > 0,
            (width * wire_area + dummy_side * fill) / safe_total,
            width,
        )
    else:
        new_density, new_perimeter, new_width = density, perimeter, width

    return FeatureStack(
        density=new_density,
        perimeter=new_perimeter,
        wire_width=new_width,
        trench_depth=depths,
    )
