"""Convolution, pooling and upsampling with autodiff (NCHW layout).

Forward passes and their adjoints all reduce to the two primitives of
:mod:`repro.nn.dispatch` (valid cross-correlation and its kernel-shaped
adjoint), which runs each call on im2col-einsum or shifted matmul as a
pure shape rule decides.  Backward closures deliberately retain **no**
padded-input copy: the padded map and its windows are recomputed from
``x.data`` on demand, so the forward graph of a deep network holds one
set of activations, not two.

Under graph capture the trade flips: a conv keeps its padded input
(replay refreshes only the interior, and weight gradients read it
instead of padding again), while pure scratch — shifted-GEMM copies,
pre-bias and input-gradient correlations, flipped kernels, pooling
gradients — and the zero-bordered dilate-pad maps come from the owner's
:class:`~repro.nn.dispatch.ScratchPool`.  Replay closures re-run the
dispatcher with ``out=`` into the original output buffers.  Replays
present the same shapes as the trace, so the rule picks the same backend
and the bit pattern is identical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dispatch
from .tensor import Array, Tensor, capture_recorder


def _check_4d(x: Tensor, name: str) -> None:
    if x.ndim != 4:
        raise ValueError(f"{name} must be 4-D (B, C, H, W), got shape {x.shape}")


def _pad_spatial(values: Array, padding: int) -> Array:
    if not padding:
        return values
    return np.pad(values, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _dilate_pad(values: Array, kh: int, kw: int, stride: int) -> Array:
    """Stride-dilated, (k-1)-padded map — the core of the conv input
    adjoint.

    Inserting ``stride - 1`` zeros between entries and padding by the
    kernel size minus one turns a strided scatter into a dense gather:
    correlating the result with the spatially flipped kernel reproduces
    ``out[p] += values[h] * W[i]`` for every ``p = h * stride + i``.
    """
    if stride == 1:
        dilated = values
    else:
        B, C, H, W = values.shape
        dilated = np.zeros(
            (B, C, (H - 1) * stride + 1, (W - 1) * stride + 1), dtype=values.dtype
        )
        dilated[:, :, ::stride, ::stride] = values
    return np.pad(dilated, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))


def _flip_transpose(weight: Array) -> Array:
    """``(O, C, kh, kw) -> (C, O, kh, kw)`` with both spatial axes flipped."""
    return np.ascontiguousarray(weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def _dilate_pad_into(values: Array, kh: int, kw: int, stride: int,
                     ws: dispatch.Scratch | None) -> Array:
    """:func:`_dilate_pad` into the pooled map under capture.

    The zero dilation lattice and the (k-1) border of the map never
    change — the pool shares a map only among call sites with equal
    shape, kernel and stride — so refreshing only the stride-spaced
    interior slots is value-identical to rebuilding it from scratch.
    """
    if ws is None:
        return _dilate_pad(values, kh, kw, stride)
    B, C, H, W = values.shape
    shape = (B, C, (H - 1) * stride + 2 * kh - 1, (W - 1) * stride + 2 * kw - 1)
    buf = ws.views.get("gdp")
    if buf is None:
        buf = ws.views["gdp"] = ws.pool.dilate_pad(shape, kh, kw, stride,
                                                   values.dtype)
    buf[:, :, kh - 1 : kh - 1 + (H - 1) * stride + 1 : stride,
        kw - 1 : kw - 1 + (W - 1) * stride + 1 : stride] = values
    return buf


def _flip_transpose_into(weight: Array, ws: dispatch.Scratch | None) -> Array:
    """:func:`_flip_transpose` into pooled scratch under capture."""
    if ws is None:
        return _flip_transpose(weight)
    O, C, kh, kw = weight.shape
    buf = ws.get("fw", (C, O, kh, kw), weight.dtype)
    np.copyto(buf, weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return buf


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation: ``x (B,C,H,W) * weight (O,C,kh,kw)``."""
    _check_4d(x, "x")
    if weight.ndim != 4:
        raise ValueError(f"weight must be 4-D (O, C, kh, kw), got {weight.shape}")
    B, C, H, W = x.shape
    O, Cw, kh, kw = weight.shape
    if Cw != C:
        raise ValueError(f"channel mismatch: input {C}, weight expects {Cw}")
    if H + 2 * padding < kh or W + 2 * padding < kw:
        raise ValueError("kernel larger than padded input")

    recorder = capture_recorder()
    fws = bws = None
    if recorder is not None:
        fws, bws = recorder.scratch(), recorder.scratch()
    xp = _pad_spatial(x.data, padding)
    corr = dispatch.corr2d(xp, weight.data, stride, tag="fwd", workspace=fws)
    if bias is not None:
        out_data = corr + bias.data[None, :, None, None]
    else:
        out_data = corr
    del corr
    padded_shape = xp.shape
    # Eager backward recomputes the padded input on demand; a captured
    # plan keeps it (its forward refreshes the interior in place), so
    # weight gradients read it instead of calling np.pad.
    kept = xp if recorder is not None and padding else None
    del xp

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor(out_data, _parents=parents)

    def backward(grad: Array) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            weight._accumulate(
                dispatch.corr2d_weight_grad(
                    grad, _pad_spatial(x.data, padding) if kept is None
                    else kept, kh, kw, stride, tag="bwd_weight",
                )
            )
        if x.requires_grad:
            # Input gradient as a full correlation of the dilated upstream
            # gradient with the flipped, channel-transposed kernel.
            gdp = _dilate_pad_into(grad, kh, kw, stride, bws)
            gfull = dispatch.corr2d(
                gdp, _flip_transpose_into(weight.data, bws), 1,
                tag="bwd_input",
                out=None if bws is None else bws.get(
                    "gfull", (B, C, gdp.shape[2] - kh + 1,
                              gdp.shape[3] - kw + 1), gdp.dtype),
                workspace=bws,
            )
            if gfull.shape == padded_shape:
                gxp = gfull
            else:
                # Trailing rows/cols of the padded input that no window
                # covers (when (H - kh) % stride != 0) get zero gradient.
                gxp = np.zeros(padded_shape, dtype=gfull.dtype)
                gxp[:, :, : gfull.shape[2], : gfull.shape[3]] = gfull
            if padding:
                gxp = gxp[:, :, padding:-padding or None, padding:-padding or None]
            x._accumulate(gxp)

    out._backward = backward
    if recorder is not None:
        if kept is not None:
            recorder.retain(kept)

        def replay() -> None:
            if kept is None:
                src = x.data
            else:
                np.copyto(kept[:, :, padding : padding + H, padding : padding + W],
                          x.data)
                src = kept
            if bias is None:
                dispatch.corr2d(src, weight.data, stride, tag="fwd",
                                out=out.data, workspace=fws)
            else:
                corr = fws.get("corr", out.data.shape, out.data.dtype)
                dispatch.corr2d(src, weight.data, stride, tag="fwd", out=corr,
                                workspace=fws)
                np.add(corr, bias.data[None, :, None, None], out=out.data)

        out._replay = replay
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling; input H, W must be divisible by the kernel when
    ``stride == kernel`` (the only mode the UNet uses)."""
    _check_4d(x, "x")
    stride = kernel if stride is None else stride
    B, C, H, W = x.shape
    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))[
        :, :, ::stride, ::stride
    ]
    Ho, Wo = windows.shape[2], windows.shape[3]
    flat = windows.reshape(B, C, Ho, Wo, kernel * kernel)
    recorder = capture_recorder()
    if recorder is not None and not flat.flags.writeable:
        # One window per map reshapes to a read-only view of x; the
        # replay refreshes a copy of its own.
        flat = flat.copy()
    arg = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0],
                 _parents=(x,))

    bws = None if recorder is None else recorder.scratch()

    def backward(grad: Array) -> None:
        if not x.requires_grad:
            return
        if bws is None:
            gx = np.zeros_like(x.data)
        else:
            gx = bws.get("maxpool_gx", x.data.shape, x.data.dtype)
            gx.fill(0)
        bi, ci, hi, wi = np.ogrid[:B, :C, :Ho, :Wo]
        rows = hi * stride + arg // kernel
        cols = wi * stride + arg % kernel
        np.add.at(gx, (bi, ci, rows, cols), grad)
        x._accumulate(gx)

    out._backward = backward
    if recorder is not None:
        recorder.retain(flat, arg)

        def replay() -> None:
            # `windows` is a strided view of x.data, so it tracks in-place
            # input updates; `flat` is its contiguous copy, refreshed here.
            np.copyto(flat.reshape(windows.shape), windows)
            flat.argmax(axis=-1, out=arg)
            # max == take_along_axis(flat, argmax): both return the same
            # window element exactly, so this is bitwise-equal and cheaper.
            flat.max(axis=-1, out=out.data)

        out._replay = replay
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling (UNet decoder path)."""
    _check_4d(x, "x")
    out = Tensor(x.data.repeat(2, axis=2).repeat(2, axis=3), _parents=(x,))
    B, C, H, W = x.shape

    def backward(grad: Array) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5)))

    out._backward = backward
    if capture_recorder() is not None:

        def replay() -> None:
            out.data.reshape(B, C, H, 2, W, 2)[...] = x.data[:, :, :, None, :, None]

        out._replay = replay
    return out
