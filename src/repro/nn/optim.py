"""Adam, the optimizer of surrogate pre-training (paper Eq. 20)."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One Adam update, written with in-place numpy ops.

        Per parameter the loop reuses a persistent scratch buffer, so a
        step allocates nothing beyond the optional weight-decay blend —
        the textbook expression allocates five temporaries per parameter,
        which dominates small-batch ``train_unet`` steps.
        """
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v, s in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= self.lr / bc1
            p.data -= s
