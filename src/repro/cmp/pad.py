"""Rough-pad contact mechanics: window pressure from the envelope profile.

Step (2) of the paper's simulator flow (Fig. 2) solves contact/fluid
mechanics for the average pressure each window sees.  We implement the
standard long-wavelength contact picture of [16]:

* the pad conforms to topography over a *character length* of 20-100 um,
  so each window's pressure depends on its envelope height relative to a
  reference surface obtained by smoothing the envelope with a kernel of
  that width;
* windows standing above the reference carry extra load, windows below
  carry less; pressure cannot go negative (the pad lifts off);
* total load is conserved: the mean pressure over the chip equals the
  applied down pressure.

The lift-off clamp makes the problem mildly nonlinear; a short fixed-point
iteration redistributes the load shed by separated windows.

Performance: :func:`solve_pressure` runs once per simulator time step —
``num_steps`` (default 60) times per teacher simulation, thousands of
times during dataset generation — so the Gaussian smoothing behind
:func:`conformed_reference` uses a **precomputed separable smoother**
cached per ``(axis length, sigma)`` instead of re-deriving the kernel
every call (the same plan-once/reuse idiom as
:mod:`repro.nn.dispatch`).  Small grids (the datagen regime) apply a
cached dense smoothing matrix per axis via BLAS; large grids fall back to
a cached-kernel windowed correlation.  Both reproduce
``scipy.ndimage.gaussian_filter(..., mode="nearest")`` to machine
precision without importing scipy on the hot path.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .process import ProcessParams

#: Axis lengths up to this use a dense cached smoothing matrix (one GEMM
#: per axis); longer axes use the cached-kernel windowed correlation.
DENSE_SMOOTHER_MAX: int = 128

#: Kernel truncation in standard deviations (matches scipy's default).
_TRUNCATE: float = 4.0

_MAX_CACHED_SMOOTHERS: int = 16

_smoothers: dict[tuple[int, float], tuple[str, np.ndarray, int]] = {}


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    """scipy-compatible normalised Gaussian taps (radius ``4 sigma``)."""
    radius = int(_TRUNCATE * sigma + 0.5)
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    return kernel / kernel.sum()


def _axis_smoother(n: int, sigma: float) -> tuple[str, np.ndarray, int]:
    """Cached per-axis smoother: ``("dense", S, r)`` or ``("window", k, r)``."""
    key = (n, float(sigma))
    hit = _smoothers.get(key)
    if hit is not None:
        return hit
    kernel = _gaussian_kernel1d(sigma)
    radius = (kernel.size - 1) // 2
    if n <= DENSE_SMOOTHER_MAX:
        # Dense matrix with nearest-edge clamping folded into the taps.
        matrix = np.zeros((n, n))
        cols = np.clip(np.arange(n)[:, None] + np.arange(-radius, radius + 1),
                       0, n - 1)
        np.add.at(
            matrix,
            (np.repeat(np.arange(n), kernel.size), cols.ravel()),
            np.tile(kernel, n),
        )
        entry = ("dense", matrix, radius)
    else:
        entry = ("window", kernel, radius)
    while len(_smoothers) >= _MAX_CACHED_SMOOTHERS:
        _smoothers.pop(next(iter(_smoothers)))
    _smoothers[key] = entry
    return entry


def _smooth_axis(values: np.ndarray, axis: int, sigma: float) -> np.ndarray:
    """Gaussian-smooth one of the two trailing axes (nearest-edge mode)."""
    n = values.shape[axis]
    kind, data, radius = _axis_smoother(n, sigma)
    if kind == "dense":
        if axis == values.ndim - 1:
            return values @ data.T
        return np.matmul(data, values)  # broadcasts over leading axes
    pad = [(0, 0)] * values.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(values, pad, mode="edge")
    # sliding_window_view keeps `axis` in place (at the output length)
    # and appends the tap axis last; the dot contracts it away.
    return sliding_window_view(padded, 2 * radius + 1, axis=axis) @ data


def clear_smoother_cache() -> None:
    """Drop all cached per-axis smoothers (used by tests and benches)."""
    _smoothers.clear()


def conformed_reference(envelope: np.ndarray, window_um: float,
                        params: ProcessParams) -> np.ndarray:
    """Pad-conformed reference surface.

    The pad bulk follows topography with wavelengths longer than the
    planarization length, so the reference is the envelope smoothed with a
    Gaussian of that width (edge-replicated).  Topography shorter than
    this shows up as ``envelope - reference`` and draws extra pressure.

    Accepts a single ``(N, M)`` map or an array with any number of
    leading axes — ``(L, N, M)`` layer stacks, ``(B, L, N, M)`` batches
    of layouts, and so on.  Only the two trailing window axes are ever
    smoothed: each leading-axis slice is an independent map, so the
    smoothing never crosses layers or batch entries (the leading-axes
    kernel contract, see DESIGN.md "Batched CMP simulator").

    Computes in float64 (other inputs are promoted).
    """
    sigma = max(params.planarization_length_um / window_um, 1e-6)
    envelope = np.asarray(envelope, dtype=np.float64)
    smoothed = _smooth_axis(envelope, envelope.ndim - 1, sigma)
    return _smooth_axis(smoothed, envelope.ndim - 2, sigma)


def solve_pressure(
    envelope: np.ndarray,
    window_um: float,
    params: ProcessParams,
    max_iter: int = 25,
    tol: float = 1e-10,
    batch_ndim: int = 0,
) -> np.ndarray:
    """Per-window pressure (psi) for a given envelope height map (Angstrom).

    Args:
        envelope: ``(N, M)`` envelope heights, or an array with any
            number of leading axes — ``(L, N, M)`` for all layers of one
            layout, ``(B, L, N, M)`` for a batch of layouts.  Each layer
            balances its own load; smoothing never crosses leading axes.
        window_um: window side length (sets the smoothing width in cells).
        params: process parameters (nominal pressure, stiffness, length).
        max_iter: fixed-point iterations for the lift-off redistribution.
        tol: convergence tolerance on the mean-pressure balance.
        batch_ndim: number of leading axes that index *independent
            simulations*.  The lift-off fixed point iterates until every
            layer of one simulation balances, exactly as a solo call on
            that simulation would; with ``batch_ndim > 0`` each leading
            entry converges (and freezes) on its own schedule, which is
            what makes a batched call bitwise identical to a Python loop
            of per-simulation calls.  ``0`` (the default) treats the
            whole input as one simulation — the historical behaviour.

    Returns:
        Non-negative pressures of the input shape whose per-layer mean
        equals ``params.pressure_psi`` (load balance) up to ``tol``.
    """
    if envelope.ndim < 2:
        raise ValueError(
            f"envelope must have at least 2 dims, got shape {envelope.shape}")
    if not 0 <= batch_ndim <= envelope.ndim - 2:
        raise ValueError(
            f"batch_ndim must be in [0, {envelope.ndim - 2}] for shape "
            f"{envelope.shape}, got {batch_ndim}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    reference = conformed_reference(envelope, window_um, params)
    base = 1.0 + params.pad_stiffness * (envelope - reference)
    p0 = params.pressure_psi
    layer_axes = (-2, -1)
    # Axes spanning one simulation; reductions over them with keepdims
    # leave per-simulation masks that broadcast against the full stack.
    sim_axes = tuple(range(batch_ndim, base.ndim))
    lifted = np.any(base <= 0.0, axis=sim_axes, keepdims=True)

    # Fast path: no lift-off in a simulation (the common case for the
    # gentle topographies of teacher runs).  The fixed point is then
    # linear and one exact rescale balances the load — no iteration.
    fast = None
    if not np.all(lifted):
        pressure = base * p0
        mean = pressure.mean(axis=layer_axes, keepdims=True)
        balanced = np.max(np.abs(mean - p0), axis=sim_axes,
                          keepdims=True) <= tol * p0
        fast = np.where(balanced, pressure, pressure * (p0 / mean))
        if not np.any(lifted):
            return fast

    # Lift-off somewhere: fixed-point redistribution.  Simulations that
    # reach balance freeze (their pressure and scale stop updating) while
    # the rest keep iterating — mirroring the early ``break`` a solo call
    # takes, so every batch entry sees the solo operation sequence.
    scale = np.ones(base.shape[:-2] + (1, 1), dtype=base.dtype)
    done = ~lifted
    slow = None
    for _ in range(max_iter):
        pressure = np.maximum(base * scale, 0.0) * p0
        mean = pressure.mean(axis=layer_axes, keepdims=True)
        degenerate = mean <= 0
        if np.any(degenerate):
            # Everything clipped on some layer: uniform-load fallback.
            pressure = np.where(degenerate, p0, pressure)
            mean = np.where(degenerate, p0, mean)
        slow = pressure if slow is None else np.where(done, slow, pressure)
        newly_done = done | (np.max(np.abs(mean - p0), axis=sim_axes,
                                    keepdims=True) <= tol * p0)
        if np.all(newly_done):
            break
        scale = np.where(newly_done, scale, scale * (p0 / mean))
        done = newly_done
    if fast is None:
        return slow
    return np.where(lifted, slow, fast)
