"""Extraction layer: differentiable layout parameter matrix **L**(x).

Paper Section IV-A: "pattern-related parameters of each window such as
density, average width, length, perimeter of coppers, and process-related
parameters such as pressure, heights of trench side and bottom, are
extracted into a layout parameter matrix **L**.  Pattern-related
parameters in **L** are updated with regard to fill amount **x** ... and
the gradient dL/dx can be calculated automatically."

This module is the autodiff twin of
:func:`repro.layout.layout.apply_fill`: identical feature-update formulas,
expressed with :class:`~repro.nn.tensor.Tensor` ops so that
``dL/dx`` flows through backpropagation.  A unit test asserts the two
implementations agree numerically.

The four feature planes per layer (the network's input channels):

0. post-fill wire density (dimensionless, ~[0, 1]);
1. post-fill copper perimeter, normalised;
2. post-fill average wire width, normalised by the dummy side;
3. trench depth, normalised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.layout import DUMMY_SIDE_UM, Layout
from ..nn.tensor import Tensor, capture_recorder

#: Channel count of the layout parameter matrix.
NUM_FEATURE_CHANNELS: int = 4

#: Fixed feature normalisers so checkpoints transfer across layouts.
PERIMETER_SCALE: float = 1.0e5
WIDTH_SCALE: float = DUMMY_SIDE_UM
DEPTH_SCALE: float = 4000.0


@dataclass(frozen=True)
class ExtractionConstants:
    """Per-layout constants the extraction layer bakes in once."""

    density: np.ndarray  # (L, N, M) pre-fill wire density
    perimeter: np.ndarray  # (L, N, M) pre-fill copper perimeter (um)
    wire_width: np.ndarray  # (L, N, M) pre-fill average width (um)
    trench_depth: np.ndarray  # (L, N, M)
    window_area: float
    dummy_side: float = DUMMY_SIDE_UM

    def crop(self, rows: slice, cols: slice) -> "ExtractionConstants":
        """Constants restricted to a window sub-grid (for region evaluation).

        Extraction is purely per-window, so cropping the constants and the
        fill identically commutes with :func:`extract_parameter_matrix`.
        """
        return ExtractionConstants(
            density=self.density[:, rows, cols],
            perimeter=self.perimeter[:, rows, cols],
            wire_width=self.wire_width[:, rows, cols],
            trench_depth=self.trench_depth[:, rows, cols],
            window_area=self.window_area,
            dummy_side=self.dummy_side,
        )

    @classmethod
    def from_layout(cls, layout: Layout,
                    dummy_side: float = DUMMY_SIDE_UM) -> "ExtractionConstants":
        depths = layout.trench_depths()[:, None, None] * np.ones(layout.grid.shape)
        return cls(
            density=layout.density_stack(),
            perimeter=layout.perimeter_stack(),
            wire_width=layout.width_stack(),
            trench_depth=depths,
            window_area=layout.grid.window_area,
            dummy_side=dummy_side,
        )


def extract_parameter_matrix(fill: Tensor, consts: ExtractionConstants) -> Tensor:
    """Differentiable **L**(x): fill ``(L, N, M)`` -> features ``(L, C, N, M)``.

    Layers become the batch dimension so one UNet weights-set serves every
    layer, exactly as a segmentation network treats independent images.

    A stacked ``(K, L, N, M)`` fill (K independent fill vectors, e.g. the
    starts of one MSP-SQP round) is also accepted: the per-layout constants
    broadcast over the leading axis and the result collapses starts and
    layers into one ``(K * L, C, N, M)`` batch, so a single network
    forward/backward serves every start.
    """
    if fill.ndim not in (3, 4) or fill.shape[-3:] != consts.density.shape:
        raise ValueError(
            f"fill shape {fill.shape} != layout shape {consts.density.shape}"
        )
    area = consts.window_area
    side = consts.dummy_side
    density0 = Tensor(consts.density)
    perimeter0 = Tensor(consts.perimeter)
    width0 = Tensor(consts.wire_width)

    density = density0 + fill * (1.0 / area)
    n_dummy = fill * (1.0 / (side * side))
    perimeter = perimeter0 + n_dummy * (4.0 * side)

    wire_area = consts.density * area
    total = Tensor(wire_area) + fill
    # Guard empty windows: where wire_area + fill == 0 the width is the
    # original one; the smooth branch uses a tiny floor to stay finite.
    safe_total = total + 1e-9
    width = (width0 * Tensor(wire_area) + fill * side) / safe_total
    # The empty-window mask is applied unconditionally (keep == 1 and
    # fallback == 0 wherever the window holds copper) so the op structure
    # is data-independent — required for captured-graph replay, where the
    # traced graph must serve every future fill value.
    empty = (wire_area + np.maximum(fill.data, 0.0)) <= 0
    keep = Tensor((~empty).astype(float))
    fallback = Tensor(consts.wire_width * empty)
    recorder = capture_recorder()
    if recorder is not None:
        wire_width = consts.wire_width
        mtmp = np.empty_like(fill.data)
        stmp = np.empty(empty.shape, dtype=np.result_type(wire_area, mtmp))
        nkeep = np.empty(empty.shape, dtype=bool)
        recorder.retain(wire_area, mtmp, stmp, empty, nkeep)

        def refresh() -> None:
            np.maximum(fill.data, 0.0, out=mtmp)
            np.add(wire_area, mtmp, out=stmp)
            np.less_equal(stmp, 0.0, out=empty)
            np.logical_not(empty, out=nkeep)
            np.copyto(keep.data, nkeep)
            np.multiply(wire_width, empty, out=fallback.data)

        # Leaves have no compute of their own; this refresh runs before
        # any consumer in the replay's topological order.
        keep._replay = refresh
    width = width * keep + fallback

    # (L, N, M) -> batch of L images; (K, L, N, M) -> batch of K * L.
    batch = int(np.prod(fill.shape[:-2]))
    N, M = fill.shape[-2:]
    depth = np.broadcast_to(consts.trench_depth / DEPTH_SCALE, fill.shape)
    planes = [
        density.reshape(batch, 1, N, M),
        (perimeter * (1.0 / PERIMETER_SCALE)).reshape(batch, 1, N, M),
        (width * (1.0 / WIDTH_SCALE)).reshape(batch, 1, N, M),
        Tensor(depth.reshape(batch, 1, N, M)),
    ]
    from ..nn import functional as F

    return F.concat(planes, axis=1)


def extract_parameter_matrix_numpy(fill: np.ndarray,
                                   consts: ExtractionConstants) -> np.ndarray:
    """Non-differentiable fast path used for dataset generation.

    Returns the same ``(L, C, N, M)`` array as
    :func:`extract_parameter_matrix` evaluated at ``fill``.
    """
    return extract_parameter_matrix(Tensor(fill), consts).data
