"""Layer/module system: a compact torch.nn equivalent.

Modules own parameter tensors and optional numpy buffers (running
statistics).  Parameter discovery walks attributes recursively, so plain
attribute assignment (``self.conv = Conv2d(...)``) and lists of modules
both work without explicit registration.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .conv import conv2d
from .init import kaiming_normal
from .tensor import Tensor, capture_recorder


class Module:
    """Base class: parameter traversal, train/eval mode, state dict."""

    def __init__(self):
        self.training = True
        #: Bumped whenever parameter/buffer *objects* are re-bound
        #: (``load_state_dict``).  Captured-graph plans key
        #: on it: replay closures read parameter arrays live, so in-place
        #: value updates are safe, but a re-bind swaps the array object a
        #: traced view aliases and must invalidate the plan.
        self._state_version = 0

    # -- forward ---------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal -------------------------------------------------------
    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for k, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{k}", item

    def named_parameters(self, prefix: str = ""):
        """Yield ``(dotted_name, Tensor)`` for every parameter."""
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield (f"{prefix}{name}", value)
        for name, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        """Yield ``(dotted_name, ndarray)`` for every registered buffer."""
        for name in getattr(self, "_buffer_names", ()):
            yield (f"{prefix}{name}", getattr(self, name))
        for name, child in self._children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        setattr(self, name, value)
        names = list(getattr(self, "_buffer_names", ()))
        if name not in names:
            names.append(name)
        self._buffer_names = tuple(names)

    # -- modes -----------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for _, child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for _, child in self._children():
            child.eval()
        return self

    # -- state -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({f"buffer:{n}": b.copy() for n, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        expected = set(params) | {f"buffer:{n}" for n in buffers}
        if set(state) != expected:
            missing = expected - set(state)
            extra = set(state) - expected
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = state[name].astype(np.float64).copy()
        for name, buf in buffers.items():
            buf[...] = state[f"buffer:{name}"]
        self._state_version += 1

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Conv2d(Module):
    """2-D convolution layer with He-initialised weights."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng=None):
        super().__init__()
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            kaiming_normal((out_channels, in_channels, kernel_size, kernel_size),
                           fan_in, rng),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    @property
    def receptive_radius(self) -> int:
        """One-sided spatial reach in input cells (``(k - 1) // 2``)."""
        return (self.kernel_size - 1) // 2

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalisation over (B, H, W) per channel with running stats."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.eps = eps
        self.momentum = momentum
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self._update_running(mean.data, var.data)
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        xn = (x - mean) / ((var + self.eps) ** 0.5)
        out = xn * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)
        if self.training and capture_recorder() is not None:
            # A captured training step replays the update too.  It hangs
            # on the block output, which replays after every node of the
            # block: ``var`` replays before the outer ``mean`` does.
            compute = out._replay

            def replay() -> None:
                compute()
                self._update_running(mean.data, var.data)

            out._replay = replay
        return out

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        m = self.momentum
        self.running_mean[...] = (1 - m) * self.running_mean + m * mean.ravel()
        self.running_var[...] = (1 - m) * self.running_var + m * var.ravel()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
