"""Functional ops on :class:`~repro.nn.tensor.Tensor`.

The paper's Eq. 10 names torch's ``VAR``, ``SUM``, ``ABS``, ``MEAN`` and
``SIGMOID``; the first four are :class:`~repro.nn.tensor.Tensor` methods,
and this module holds the rest the surrogate runs: ``sigmoid``, the
``maximum``/``minimum`` hinges, ReLU and the tensor surgery (concat,
pad) the UNet needs.

Under graph capture (:mod:`repro.nn.capture`) each op additionally
installs a ``_replay`` closure that recomputes its whole output in place
via ``out=`` ufuncs; the output lives in the owner's pool, so closures
read ``out.data`` (the sigmoid's backward reads its value there).  Every
closure applies the same ufuncs to the same operands as the eager path,
so replayed values are bitwise identical.
ReLU and the hinges build their gradient masks in the backward (from
the forward's arrays, which a plan keeps), so a forward-only replay
writes no mask; under capture the masks are pooled scratch.  Buffers
the closures keep are allocated once at trace time and handed to the
recorder for arena accounting.
"""

from __future__ import annotations

import numpy as np

from .dispatch import workspace_buffer
from .tensor import Array, Tensor, _pow_value, _unbroadcast, capture_recorder


def _retain(*buffers: np.ndarray) -> None:
    recorder = capture_recorder()
    if recorder is not None:
        recorder.retain(*buffers)


def _scratch():
    """A call site's pooled scratch under capture, ``None`` in eager mode."""
    recorder = capture_recorder()
    return None if recorder is None else recorder.scratch()


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))
    bws = _scratch()

    def backward(grad: Array) -> None:
        if x.requires_grad:
            mask = np.greater(x.data, 0, out=workspace_buffer(
                bws, "relu_mask", x.shape, bool))
            x._accumulate(np.multiply(grad, mask, out=workspace_buffer(
                bws, "relu_gx", grad.shape, grad.dtype)))

    out._backward = backward
    if bws is not None:
        out._replay = lambda: np.maximum(x.data, 0.0, out=out.data)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0))),
                 _parents=(x,))

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad * out.data * (1.0 - out.data))

    out._backward = backward
    if capture_recorder() is not None:
        tmp = np.empty_like(out.data)
        _retain(tmp)

        def replay() -> None:
            np.clip(x.data, -60.0, 60.0, out=tmp)
            np.negative(tmp, out=tmp)
            np.exp(tmp, out=tmp)
            np.add(1.0, tmp, out=tmp)
            np.divide(1.0, tmp, out=out.data)

        out._replay = replay
    return out


def _hinge(x: Tensor, other, pick, take) -> Tensor:
    """Elementwise ``pick`` (max or min) of ``x`` and ``other``; the
    gradient goes where ``take(x, other)`` holds to ``x``, elsewhere to
    ``other``, with the mask built by the backward."""
    other = Tensor._lift(other)
    out = Tensor(pick(x.data, other.data), _parents=(x, other))
    bws = _scratch()

    def backward(grad: Array) -> None:
        take_x = take(x.data, other.data, out=workspace_buffer(
            bws, "hinge_mask", out.shape, bool))
        if x.requires_grad:
            x._accumulate(grad * take_x)
        if other.requires_grad:
            other._accumulate(grad * ~take_x)

    out._backward = backward
    if bws is not None:
        out._replay = lambda: pick(x.data, other.data, out=out.data)
    return out


def maximum(x: Tensor, other) -> Tensor:
    """Elementwise max; ties route the gradient to ``x`` (subgradient)."""
    return _hinge(x, other, np.maximum, np.greater_equal)


def minimum(x: Tensor, other) -> Tensor:
    """Elementwise min; ties route the gradient to ``x`` (subgradient)."""
    return _hinge(x, other, np.minimum, np.less_equal)


def batch_norm_eval(x: Tensor, mean: Tensor, var: Tensor, gamma: Tensor,
                    beta: Tensor, eps: float) -> Tensor:
    """Eval-mode batch norm of ``(B, C, H, W)`` as one graph node.

    Bitwise the ``Tensor`` chain ``(x - mean) / (var + eps) ** 0.5 *
    gamma + beta`` — the chain's ufuncs in the chain's order, written
    into one output buffer — and so are the gradients: ``x`` gets
    ``(g * gamma) / s`` with ``s = (var + eps) ** 0.5``, and
    ``gamma``/``beta`` get the chain's broadcast sums when they require
    grad.  The chain builds nine nodes and four full-size arrays.

    ``mean``/``var`` are the running statistics and ``gamma``/``beta``
    the affine parameters, each with ``C`` entries.  All four are graph
    leaves that the replay closure reads live, so in-place updates flow
    into replays and a plan's leaf snapshot covers them.  The ``gamma``
    gradient recomputes the normalised input from ``x`` (bitwise the
    forward's) instead of keeping it.
    """
    shape = (1, -1, 1, 1)
    neg_mean = np.negative(mean.data.reshape(shape))
    scale = _pow_value(var.data.reshape(shape) + eps, 0.5)
    value = np.add(x.data, neg_mean)
    np.divide(value, scale, out=value)
    np.multiply(value, gamma.data.reshape(shape), out=value)
    np.add(value, beta.data.reshape(shape), out=value)
    out = Tensor(value, _parents=(x, mean, var, gamma, beta))

    def backward(grad: Array) -> None:
        if x.requires_grad:
            gx = np.multiply(grad, gamma.data.reshape(shape))
            np.divide(gx, scale, out=gx)
            x._accumulate(gx)
        if gamma.requires_grad:
            xn = np.add(x.data, neg_mean)
            np.divide(xn, scale, out=xn)
            gamma._accumulate(
                _unbroadcast(grad * xn, scale.shape).reshape(gamma.shape))
        if beta.requires_grad:
            beta._accumulate(
                _unbroadcast(grad, scale.shape).reshape(beta.shape))

    out._backward = backward
    if capture_recorder() is not None:
        _retain(neg_mean, scale)

        def replay() -> None:
            value = out.data
            np.negative(mean.data.reshape(shape), out=neg_mean)
            np.add(var.data.reshape(shape), eps, out=scale)
            _pow_value(scale, 0.5, out=scale)
            np.add(x.data, neg_mean, out=value)
            np.divide(value, scale, out=value)
            np.multiply(value, gamma.data.reshape(shape), out=value)
            np.add(value, beta.data.reshape(shape), out=value)

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
        # Other plans of the owner write this output's pooled buffer, so
        # the border is zeroed again, then the interior refreshed.
        def replay() -> None:
            out.data.fill(0.0)
            np.copyto(out.data[..., top : top + h, left : left + w], x.data)

        out._replay = replay
    return out
