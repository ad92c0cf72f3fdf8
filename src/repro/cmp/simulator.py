"""Full-chip CMP simulator: the four-step flow of the paper's Fig. 2.

For every layer the simulator

1. computes the envelope height of each window (the up-area surface),
2. solves the rough-pad contact mechanics for the window pressures,
3. evaluates DSH up/down removal rates, and
4. removes material for one Preston time step,

iterating until the total polish time is reached.  The output is the
post-CMP per-window average height profile plus dishing and erosion maps —
the quantities a commercial tool such as Cadence CMP Predictor reports.

This simulator is the *teacher* for the UNet surrogate and the engine of
the Cai [12] baseline (which differentiates it numerically).  It is
deliberately written with plain numpy state updates: it is meant to be a
credible stand-in for a slow black-box tool, not to be differentiable.

Batching: every kernel in the polish pipeline operates over arbitrary
leading axes (the leading-axes contract, DESIGN.md "Batched CMP
simulator"), so :meth:`CmpSimulator.simulate_batch` polishes a whole
``(B, L, N, M)`` stack of layouts in one pass of numpy calls per time
step — bitwise identical to looping :meth:`CmpSimulator.simulate` over
the entries, but without paying the Python interpreter per layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..layout.layout import FeatureStack, Layout, apply_fill, stack_features
from ..obs import trace as obs_trace
from .dsh import removal_rates
from .pad import solve_pressure
from .process import DEFAULT_PROCESS, ProcessParams


@dataclass
class CmpResult:
    """Post-CMP outputs; every array has shape ``(..., L, N, M)``.

    A single :meth:`CmpSimulator.simulate` produces ``(L, N, M)`` maps;
    :meth:`CmpSimulator.simulate_batch` prepends the batch axes of its
    input (``(B, L, N, M)`` for a stacked batch of ``B`` layouts) — use
    :meth:`entry` to slice one layout's result back out.

    Attributes:
        height: remaining absolute film thickness per window (Angstrom),
            measured from the substrate; positive for sensible polish
            schedules, matching the "positive height of each window" the
            paper's CMP model reports.
        dishing: copper dishing per window (Angstrom).
        erosion: oxide erosion per window (Angstrom).
        pressure: pad pressure at the final time step (psi).
        step_height: residual up-down step at the final time step.
    """

    height: np.ndarray
    dishing: np.ndarray
    erosion: np.ndarray
    pressure: np.ndarray
    step_height: np.ndarray

    @property
    def height_range(self) -> float:
        """The paper's ``DeltaH``: max minus min of the height profile."""
        return float(self.height.max() - self.height.min())

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading batch axes (``()`` for a single-layout result)."""
        return self.height.shape[:-3]

    def entry(self, index) -> "CmpResult":
        """One leading-axis entry as its own result (views, no copies)."""
        return CmpResult(
            height=self.height[index], dishing=self.dishing[index],
            erosion=self.erosion[index], pressure=self.pressure[index],
            step_height=self.step_height[index],
        )


def effective_density(density: np.ndarray, perimeter: np.ndarray,
                      window_area: float, params: ProcessParams) -> np.ndarray:
    """Up-area fraction after conformal deposition bias.

    Deposition widens each feature by ``bias/2`` per edge, adding
    ``perimeter * bias / 2`` of up area per window.  Purely elementwise:
    accepts any leading axes.
    """
    gain = perimeter * params.deposition_bias_um / 2.0 / window_area
    return np.clip(density + gain, params.min_effective_density,
                   params.max_effective_density)


class CmpSimulator:
    """Time-stepping full-chip CMP simulator.

    Args:
        params: process calibration (default 45 nm-like set).
        window_um: window side length in micrometres.

    The polish computes in float64 end to end; features of any numeric
    dtype are promoted on entry.
    """

    def __init__(self, params: ProcessParams = DEFAULT_PROCESS,
                 window_um: float = 100.0):
        self.params = params
        self.window_um = window_um

    def simulate(self, features: FeatureStack) -> CmpResult:
        """Polish a feature stack.

        Default mode: layers polish independently but are advanced
        together (vectorised over the layer axis).  With
        ``params.stack_topography`` enabled, layers polish sequentially
        and each layer's deposition conforms to the residual topography
        the previous polish left behind (multilevel coupling).

        Args:
            features: post-fill pattern features, arrays of shape
                ``(L, N, M)`` (see :class:`repro.layout.layout.FeatureStack`).

        Returns:
            A :class:`CmpResult` with per-layer output maps.
        """
        with obs_trace.span("cmp.simulate", cat="cmp",
                            layers=int(features.shape[-3]),
                            stacked=self.params.stack_topography):
            if not self.params.stack_topography:
                return self._polish(features, incoming=None)
            return self._polish_stacked(features)

    def simulate_batch(
        self, features: FeatureStack | Sequence[FeatureStack]
    ) -> CmpResult:
        """Polish a batch of layouts in one vectorised pass.

        Accepts either a sequence of same-shape ``(L, N, M)``
        :class:`FeatureStack` objects (stacked here) or one already
        stacked ``(..., L, N, M)`` feature stack with at least one
        leading batch axis.  Per-layer load balance and pad smoothing
        never cross layers or batch entries, and each entry's lift-off
        iteration converges on its own schedule, so the batched result
        is **bitwise identical** to looping :meth:`simulate` over the
        entries — in both the default and ``stack_topography`` modes.

        Returns:
            A :class:`CmpResult` whose arrays carry the batch axes in
            front (``(B, L, N, M)`` for a ``B``-entry batch).
        """
        if not isinstance(features, FeatureStack):
            features = stack_features(features)
        if features.density.ndim < 4:
            raise ValueError(
                "simulate_batch needs at least one leading batch axis; "
                f"got shape {features.shape} — use simulate() for a "
                "single (L, N, M) stack")
        batch = int(np.prod(features.shape[:-3]))
        with obs_trace.span("cmp.simulate_batch", cat="cmp",
                            batch=batch, layers=int(features.shape[-3]),
                            stacked=self.params.stack_topography):
            if not self.params.stack_topography:
                return self._polish(features, incoming=None)
            return self._polish_stacked(features)

    def _polish_stacked(self, features: FeatureStack) -> CmpResult:
        """Sequential multilevel polish (vectorised over batch axes).

        Layers run one after another; each layer's starting surfaces
        inherit the attenuated residual (mean-removed) topography the
        previous layer's polish left behind.  Batch entries never
        interact: the residual mean is taken per entry.
        """
        num_layers = features.density.shape[-3]
        results: list[CmpResult] = []
        incoming = None
        for l in range(num_layers):
            single = FeatureStack(
                density=features.density[..., l : l + 1, :, :],
                perimeter=features.perimeter[..., l : l + 1, :, :],
                wire_width=features.wire_width[..., l : l + 1, :, :],
                trench_depth=features.trench_depth[..., l : l + 1, :, :],
            )
            result = self._polish(single, incoming=incoming)
            results.append(result)
            layer_height = result.height[..., 0, :, :]
            residual = layer_height - layer_height.mean(
                axis=(-2, -1), keepdims=True)
            incoming = (
                self.params.stacking_attenuation * residual
            )[..., None, :, :]
        return CmpResult(
            height=np.concatenate([r.height for r in results], axis=-3),
            dishing=np.concatenate([r.dishing for r in results], axis=-3),
            erosion=np.concatenate([r.erosion for r in results], axis=-3),
            pressure=np.concatenate([r.pressure for r in results], axis=-3),
            step_height=np.concatenate(
                [r.step_height for r in results], axis=-3),
        )

    def _work_arrays(
        self, features: FeatureStack
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Feature arrays in float64 (cast-free when already float64)."""
        return (
            np.asarray(features.density, dtype=np.float64),
            np.asarray(features.perimeter, dtype=np.float64),
            np.asarray(features.wire_width, dtype=np.float64),
            np.asarray(features.trench_depth, dtype=np.float64),
        )

    def _polish(self, features: FeatureStack,
                incoming: np.ndarray | None) -> CmpResult:
        """Core polish loop over a ``(..., L, N, M)`` feature stack.

        Any leading axes are independent batch entries; every time-step
        operation is either elementwise or per-trailing-map, so one loop
        advances the whole stack.  ``incoming`` optionally offsets the
        starting surfaces with topography inherited from the layer below
        (conformal deposition).
        """
        params = self.params
        area = self.window_um * self.window_um
        density, perimeter, wire_width, trench_depth = \
            self._work_arrays(features)
        rho = effective_density(density, perimeter, area, params)
        h_up = np.array(trench_depth, copy=True)
        h_down = np.zeros_like(h_up)
        if incoming is not None:
            h_up = h_up + incoming
            h_down = h_down + incoming
        clear_time = np.full(h_up.shape, params.polish_time_s,
                             dtype=h_up.dtype)
        # Leading axes beyond (L, N, M) index independent simulations;
        # the pressure solve must balance each one on its own schedule.
        batch_ndim = max(0, h_up.ndim - 3)

        dt = params.time_step_s
        t = 0.0
        # Observability: one parent span per polish with one child span
        # per stage (pressure solve / DSH rates / Preston update),
        # accumulated across the loop — a no-op singleton when disabled.
        obs = obs_trace.stages("cmp.polish", cat="cmp",
                               shape=list(h_up.shape),
                               batch=int(np.prod(h_up.shape[:-3], dtype=int))
                               if batch_ndim else 1,
                               steps=params.num_steps)
        # num_steps >= 1 (ProcessParams guarantees it), so the loop always
        # assigns the pressure used by the dishing/erosion terms below.
        with obs:
            for _ in range(params.num_steps):
                with obs.measure("pressure"):
                    pressure = solve_pressure(h_up, self.window_um, params,
                                              batch_ndim=batch_ndim)
                step = h_up - h_down
                with obs.measure("dsh"):
                    rate_up, rate_down = removal_rates(rho, step, pressure,
                                                       params)
                with obs.measure("preston"):
                    h_up = h_up - rate_up * dt
                    h_down = h_down - rate_down * dt
                    # The up surface can never sink below the down surface.
                    h_up = np.maximum(h_up, h_down)
                    t += dt
                    newly_clear = (
                        h_up - h_down < 0.05 * params.contact_height_a
                    ) & (clear_time >= params.polish_time_s)
                    clear_time = np.where(newly_clear, t, clear_time)

            step = h_up - h_down
            over_polish = np.maximum(0.0, params.polish_time_s - clear_time)
            dishing = (params.dishing_coefficient * pressure
                       * wire_width)
            erosion = params.erosion_coefficient * pressure * rho * over_polish
            height = (
                params.initial_film_a
                + rho * (h_up - dishing) + (1.0 - rho) * h_down - erosion
            )
            if obs is not obs_trace.NOOP_STAGES:
                cleared = clear_time < params.polish_time_s
                obs.set(
                    cleared_fraction=float(np.mean(cleared)),
                    # Iterations-to-convergence: steps until the *last*
                    # window cleared, or the full budget if some never did.
                    steps_to_clear=int(np.ceil(clear_time.max() / dt))
                    if bool(cleared.all()) else params.num_steps,
                )
        return CmpResult(
            height=height, dishing=dishing, erosion=erosion,
            pressure=pressure, step_height=step,
        )

    def simulate_layout(self, layout: Layout, fill: np.ndarray | None = None) -> CmpResult:
        """Convenience wrapper: apply ``fill`` to ``layout`` and polish."""
        features = apply_fill(layout, fill)
        return self.simulate(features)
