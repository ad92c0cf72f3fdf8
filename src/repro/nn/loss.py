"""Loss function for surrogate pre-training."""

from __future__ import annotations

from .tensor import Tensor


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error — the paper's pre-training objective (Eq. 20)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return (diff * diff).mean()
