"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from ..config import rng_from_seed


def kaiming_normal(shape: tuple[int, ...], fan_in: int,
                   rng: np.random.Generator | int | None = None) -> np.ndarray:
    """He initialisation for ReLU networks: ``N(0, sqrt(2 / fan_in))``."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    rng = rng_from_seed(rng)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
