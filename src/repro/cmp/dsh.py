"""Density-step-height (DSH) removal-rate model (step 3 of Fig. 2).

Within each window the pattern is abstracted as *up* areas (raised
features, area fraction equal to the effective density ``rho``) separated
from *down* areas by the step height ``s``.  Following the DSH model of
Cai's MIT thesis [17]:

* while the step is taller than the pad contact height ``h_c`` the pad
  rides only on the up areas, concentrating the whole load there:
  ``RR_up = R_blanket / rho`` and ``RR_down = 0``;
* once ``s < h_c`` the pad progressively touches down areas; the load is
  shared with a linear contact fraction ``phi = s / h_c``:

  .. math::
     RR_{up} = \\frac{R}{\\rho + (1-\\rho)(1-\\phi)}, \\qquad
     RR_{down} = (1-\\phi) \\; RR_{up}

  which recovers the blanket rate at ``s = 0`` and the full load
  concentration at ``s = h_c``.

``R_blanket`` itself comes from the Preston equation with the *local*
window pressure, so pressure coupling from :mod:`repro.cmp.pad` feeds in
here.
"""

from __future__ import annotations

import numpy as np

from .preston import preston_rate
from .process import ProcessParams


def contact_fraction(step_height: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Fraction ``phi`` of the load still concentrated by the step."""
    return np.clip(step_height / params.contact_height_a, 0.0, 1.0)


def removal_rates(
    density: np.ndarray,
    step_height: np.ndarray,
    pressure: np.ndarray,
    params: ProcessParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Up/down removal rates (Angstrom/s) for every window.

    Every operation here is elementwise, so the inputs may carry any
    number of leading axes — ``(N, M)`` maps, ``(L, N, M)`` layer stacks
    or ``(B, L, N, M)`` batches of layouts — and nothing ever couples
    neighbouring windows, layers or batch entries (the leading-axes
    kernel contract).

    Args:
        density: effective up-area fraction, clipped into
            ``[min_effective_density, 1]`` by the caller or here.
        step_height: current up-minus-down height (Angstrom, >= 0).
        pressure: local pad pressure (psi).
        params: process parameters.

    Returns:
        ``(rate_up, rate_down)`` arrays of the input shape.
    """
    rho = np.clip(density, params.min_effective_density, 1.0)
    blanket = preston_rate(pressure, params)
    phi = contact_fraction(np.maximum(step_height, 0.0), params)
    carrier = rho + (1.0 - rho) * (1.0 - phi)
    rate_up = blanket / carrier
    rate_down = (1.0 - phi) * rate_up
    return rate_up, rate_down
