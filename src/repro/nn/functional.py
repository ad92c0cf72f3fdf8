"""Functional ops on :class:`~repro.nn.tensor.Tensor`.

The paper's Eq. 10 names torch's ``VAR``, ``SUM``, ``ABS``, ``MEAN`` and
``SIGMOID``; the first four are :class:`~repro.nn.tensor.Tensor` methods,
and this module holds the rest the surrogate runs: ``sigmoid``, the
``maximum``/``minimum`` hinges, ReLU and the tensor surgery (concat,
pad) the UNet needs.

Under graph capture (:mod:`repro.nn.capture`) each op additionally
installs a ``_replay`` closure that recomputes its output — and any
state its backward closure captured (masks, gate arrays) — in place via
``out=`` ufuncs.  Every closure applies the same ufuncs to the same
operands as the eager path, so replayed values are bitwise identical.
Scratch buffers and masks the closures keep are allocated once at trace
time and handed to the recorder for arena accounting.
"""

from __future__ import annotations

import numpy as np

from .tensor import Array, Tensor, capture_recorder


def _retain(*buffers: np.ndarray) -> None:
    recorder = capture_recorder()
    if recorder is not None:
        recorder.retain(*buffers)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))
    mask = x.data > 0

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    out._backward = backward
    if capture_recorder() is not None:
        _retain(mask)

        def replay() -> None:
            np.maximum(x.data, 0.0, out=out.data)
            np.greater(x.data, 0, out=mask)

        out._replay = replay
    return out


def sigmoid(x: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))
    out = Tensor(value, _parents=(x,))

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad * value * (1.0 - value))

    out._backward = backward
    if capture_recorder() is not None:
        tmp = np.empty_like(value)
        _retain(tmp)

        def replay() -> None:
            # `value` is out.data (same-dtype construction), so refreshing
            # the output also refreshes the backward state.
            np.clip(x.data, -60.0, 60.0, out=tmp)
            np.negative(tmp, out=tmp)
            np.exp(tmp, out=tmp)
            np.add(1.0, tmp, out=tmp)
            np.divide(1.0, tmp, out=value)

        out._replay = replay
    return out


def maximum(x: Tensor, other) -> Tensor:
    """Elementwise max; ties route the gradient to ``x`` (subgradient)."""
    other = Tensor._lift(other)
    out = Tensor(np.maximum(x.data, other.data), _parents=(x, other))
    # asarray: comparing 0-d operands yields a numpy scalar, which cannot
    # serve as the ``out=`` target of the replay refresh below.
    take_x = np.asarray(x.data >= other.data)

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad * take_x)
        if other.requires_grad:
            other._accumulate(grad * ~take_x)

    out._backward = backward
    if capture_recorder() is not None:
        _retain(take_x)

        def replay() -> None:
            np.maximum(x.data, other.data, out=out.data)
            np.greater_equal(x.data, other.data, out=take_x)

        out._replay = replay
    return out


def minimum(x: Tensor, other) -> Tensor:
    other = Tensor._lift(other)
    out = Tensor(np.minimum(x.data, other.data), _parents=(x, other))
    take_x = np.asarray(x.data <= other.data)

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad * take_x)
        if other.requires_grad:
            other._accumulate(grad * ~take_x)

    out._backward = backward
    if capture_recorder() is not None:
        _retain(take_x)

        def replay() -> None:
            np.minimum(x.data, other.data, out=out.data)
            np.less_equal(x.data, other.data, out=take_x)

        out._replay = replay
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` (the UNet skip-connection join)."""
    if not tensors:
        raise ValueError("concat of an empty list")
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis), _parents=tuple(tensors)
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes).tolist()

    def backward(grad: Array) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    out._backward = backward
    if capture_recorder() is not None:
        slots = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * out.ndim
            index[axis] = slice(start, stop)
            slots.append((tuple(index), t))

        def replay() -> None:
            for index, t in slots:
                np.copyto(out.data[index], t.data)

        out._replay = replay
    return out


def pad2d(x: Tensor, pad: tuple[int, int, int, int]) -> Tensor:
    """Zero-pad the last two dims by ``(top, bottom, left, right)``."""
    top, bottom, left, right = pad
    if min(pad) < 0:
        raise ValueError(f"negative padding: {pad}")
    widths = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    out = Tensor(np.pad(x.data, widths), _parents=(x,))
    h, w = x.data.shape[-2:]

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad[..., top : top + h, left : left + w])

    out._backward = backward
    if capture_recorder() is not None:
        # The zero border never changes; only the interior is refreshed.
        out._replay = lambda: np.copyto(
            out.data[..., top : top + h, left : left + w], x.data
        )
    return out
