"""Convolution, pooling and upsampling with autodiff (NCHW layout).

Forward passes and their adjoints all reduce to the two primitives of
:mod:`repro.nn.dispatch` (valid cross-correlation and its kernel-shaped
adjoint), which runs each call on im2col-einsum or shifted matmul as a
pure shape rule decides.  A padded conv input is a zero-bordered
channels-last ``(B, H + 2p, W + 2p, C)`` map, the layout the
shifted-GEMM backend reads, and the bias add rides on the output's
transposing write; the input gradient's dilate-pad map is channels-last
too.

Each forward computes only what its outputs need; state only a backward
reads (a pooling window's pick, a padded input for the weight gradient)
is built by the backward from the forward's arrays.  Closures retain no
padded-input copy, so the forward graph of a deep network holds one set
of activations, not two.

Under graph capture the closures run the same code on pooled buffers
(:class:`~repro.nn.dispatch.ScratchPool`): pure scratch, the dilate-pad
maps and each conv's padded input, shared by the owner's convs of one
per-image shape.  Closures keep no view of a forward array across calls
(a pool that grows re-binds ``.data`` to the grown buffer), so pooling
and upsampling take their strided taps per call.  Replays present the
same shapes as the trace, so the rule picks the same backend and the
bit pattern is identical.
"""

from __future__ import annotations

import numpy as np

from . import dispatch
from .dispatch import workspace_buffer
from .tensor import Array, Tensor, capture_recorder


def _check_4d(x: Tensor, name: str) -> None:
    if x.ndim != 4:
        raise ValueError(f"{name} must be 4-D (B, C, H, W), got shape {x.shape}")


def _zero_map(workspace: dispatch.Scratch | None, interior: tuple,
              shape: tuple, dtype) -> Array:
    """A zero-bordered map: fresh in eager mode, else the pool's map for
    ``interior`` (the positions every user writes)."""
    if workspace is None:
        return np.zeros(shape, dtype=dtype)
    return workspace.map(interior, shape, dtype)


def _dilate_pad(values: Array, kh: int, kw: int, stride: int,
                ws: dispatch.Scratch | None) -> Array:
    """Stride-dilated, (k-1)-padded map of ``values`` — the core of the
    conv input adjoint — channels-last, viewed as ``(B, C, H', W')``.

    Inserting ``stride - 1`` zeros between entries and padding by the
    kernel size minus one turns a strided scatter into a dense gather:
    correlating the result with the spatially flipped kernel reproduces
    ``out[p] += values[h] * W[i]`` for every ``p = h * stride + i``.
    A 1x1 stride-1 kernel needs neither, so ``values`` itself is used.
    Only the stride-spaced interior slots are written; the zero lattice
    and border never change, so a pooled map (shared only among call
    sites with equal shape, kernel and stride) needs no clearing.
    """
    if kh == kw == 1 and stride == 1:
        return values
    B, C, H, W = values.shape
    shape = (B, (H - 1) * stride + 2 * kh - 1, (W - 1) * stride + 2 * kw - 1, C)
    buf = _zero_map(ws, ("dilate", kh, kw, stride), shape, values.dtype)
    buf[:, kh - 1 : kh - 1 + (H - 1) * stride + 1 : stride,
        kw - 1 : kw - 1 + (W - 1) * stride + 1 : stride] = values.transpose(0, 2, 3, 1)
    return buf.transpose(0, 3, 1, 2)


def _flip_transpose_into(weight: Array, ws: dispatch.Scratch | None) -> Array:
    """``(O, C, kh, kw) -> (C, O, kh, kw)`` with both spatial axes flipped."""
    O, C, kh, kw = weight.shape
    buf = workspace_buffer(ws, "fw", (C, O, kh, kw), weight.dtype)
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
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho, Wo = (Hp - kh) // stride + 1, (Wp - kw) // stride + 1

    recorder = capture_recorder()
    fws = bws = None
    if recorder is not None:
        fws, bws = recorder.scratch(), recorder.scratch()

    def padded() -> Array:
        """``x.data`` with its zero border, as a channels-last map viewed
        ``(B, C, Hp, Wp)``, refreshed in place."""
        if not padding:
            return x.data
        buf = _zero_map(fws, ("pad", padding), (B, Hp, Wp, C), x.data.dtype)
        np.copyto(buf[:, padding : padding + H, padding : padding + W],
                  x.data.transpose(0, 2, 3, 1))
        return buf.transpose(0, 3, 1, 2)

    def forward(out_data: Array) -> None:
        dispatch.corr2d(padded(), weight.data, stride, tag="fwd",
                        out=out_data, workspace=fws,
                        bias=None if bias is None else bias.data)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor(np.empty((B, O, Ho, Wo), dtype=x.data.dtype), _parents=parents)
    forward(out.data)

    def backward(grad: Array) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            # Later convs may have reused the pooled map: pad again.
            weight._accumulate(dispatch.corr2d_weight_grad(
                grad, padded(), kh, kw, stride, tag="bwd_weight"))
        if x.requires_grad:
            # Input gradient as a full correlation of the dilated upstream
            # gradient with the flipped, channel-transposed kernel.
            gdp = _dilate_pad(grad, kh, kw, stride, bws)
            gfull = dispatch.corr2d(
                gdp, _flip_transpose_into(weight.data, bws), 1,
                tag="bwd_input",
                out=workspace_buffer(bws, "gfull", (B, C, gdp.shape[2] - kh + 1,
                                                    gdp.shape[3] - kw + 1),
                                     gdp.dtype),
                workspace=bws,
            )
            if gfull.shape == (B, C, Hp, Wp):
                gxp = gfull
            else:
                # Trailing rows/cols of the padded input that no window
                # covers (when (H - kh) % stride != 0) get zero gradient.
                gxp = np.zeros((B, C, Hp, Wp), dtype=gfull.dtype)
                gxp[:, :, : gfull.shape[2], : gfull.shape[3]] = gfull
            if padding:
                gxp = gxp[:, :, padding:-padding or None, padding:-padding or None]
            x._accumulate(gxp)

    out._backward = backward
    if recorder is not None:
        out._replay = lambda: forward(out.data)
    return out


def _taps(a: Array, kernel: int, stride: int, Ho: int, Wo: int) -> list[Array]:
    """The ``kernel²`` strided views of ``a`` that hold element ``(i, j)``
    of every ``Ho x Wo`` window, in argmax's row-major scan order."""
    return [a[:, :, i : i + (Ho - 1) * stride + 1 : stride,
              j : j + (Wo - 1) * stride + 1 : stride]
            for i in range(kernel) for j in range(kernel)]


def _first_max(taps: list[Array], peak: Array, arg: Array, miss: Array,
               ws: dispatch.Scratch | None) -> Array:
    """Scan-order index of each window's first element equal to its max
    ``peak``, into ``arg`` — argmax's pick, NaN windows included (their
    first NaN)."""
    nan = bool(np.isnan(peak, out=miss).any())
    num = workspace_buffer(ws, "pool_num", peak.shape, bool) if nan else None
    # Horner form of "number of leading misses": arg = m0 (1 + m1 (1 + ...)).
    arg.fill(0)
    for tap in reversed(taps[:-1]):
        np.not_equal(tap, peak, out=miss)
        if nan:
            np.logical_and(miss, np.equal(tap, tap, out=num), out=miss)
        np.add(arg, 1, out=arg)
        np.multiply(arg, miss, out=arg)
    return arg


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over ``kernel x kernel`` windows ``stride`` apart
    (default: ``kernel``, the only mode the UNet uses); trailing rows and
    columns no window covers are dropped.

    The forward folds the window's strided views into the output with
    ``np.maximum(tap, out)`` in argmax's scan order, so each output is
    the window's max and a NaN propagates.  Which operand a tie returns
    is the platform's: numpy's x86-64 loops return the second, ``out``,
    so a ``+0.0``/``-0.0`` tie keeps the first maximum's bits, as argmax
    does, but numpy does not promise it (aarch64's FMAX gives ``+0.0``).
    A window with NaNs of different payloads outputs its last NaN's.
    The gradient goes to argmax's pick, which the backward finds again
    by comparisons, so it does not depend on either rule.
    """
    _check_4d(x, "x")
    stride = kernel if stride is None else stride
    B, C, H, W = x.shape
    Ho, Wo = (H - kernel) // stride + 1, (W - kernel) // stride + 1
    recorder = capture_recorder()
    bws = None if recorder is None else recorder.scratch()

    out = Tensor(np.empty((B, C, Ho, Wo), dtype=x.data.dtype), _parents=(x,))

    def forward() -> None:
        taps = _taps(x.data, kernel, stride, Ho, Wo)
        np.copyto(out.data, taps[0])
        for tap in taps[1:]:
            np.maximum(tap, out.data, out=out.data)

    forward()

    def backward(grad: Array) -> None:
        if not x.requires_grad:
            return
        arg = _first_max(
            _taps(x.data, kernel, stride, Ho, Wo), out.data,
            workspace_buffer(bws, "pool_arg", out.shape, np.intp),
            workspace_buffer(bws, "pool_miss", out.shape, bool), bws)
        # Flat index in ``x`` of each window's pick: the pick's offset
        # within its window, plus the window's top-left corner within its
        # map, plus the map's first element.
        offsets = (np.arange(kernel)[:, None] * W + np.arange(kernel)).ravel()
        idx = np.take(offsets, arg,
                      out=workspace_buffer(bws, "pool_idx", out.shape, np.intp))
        idx += np.arange(Ho)[:, None] * (stride * W) + np.arange(Wo) * stride
        idx += np.arange(0, B * C * H * W, H * W).reshape(B, C, 1, 1)
        gx = workspace_buffer(bws, "maxpool_gx", x.shape, x.data.dtype)
        gx.fill(0)
        if stride >= kernel:
            # Windows are disjoint: one write per pick, 0 + g as a
            # scatter-add into zeros would give.
            gx.reshape(-1)[idx] = np.add(grad, 0.0, out=workspace_buffer(
                bws, "pool_g", grad.shape, grad.dtype))
        else:
            np.add.at(gx.reshape(-1), idx, grad)
        x._accumulate(gx)

    out._backward = backward
    if recorder is not None:
        out._replay = forward
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling (UNet decoder path)."""
    _check_4d(x, "x")
    B, C, H, W = x.shape
    recorder = capture_recorder()
    bws = None if recorder is None else recorder.scratch()

    out = Tensor(np.empty((B, C, 2 * H, 2 * W), dtype=x.data.dtype),
                 _parents=(x,))

    def forward() -> None:
        for tap in _taps(out.data, 2, 2, H, W):
            np.copyto(tap, x.data)

    forward()

    def backward(grad: Array) -> None:
        if not x.requires_grad:
            return
        # Bitwise ``grad.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5))``:
        # numpy adds each row's pair, then the two pairs — or all four in
        # turn when W == 1 lets it merge the window axes — starting from
        # +0.0, so four -0.0 sum to +0.0.
        g00, g01, g10, g11 = _taps(grad, 2, 2, H, W)
        gx = workspace_buffer(bws, "up_gx", x.shape, grad.dtype)
        np.add(g00, g01, out=gx)
        if W == 1:
            np.add(gx, g10, out=gx)
            np.add(gx, g11, out=gx)
        else:
            pair = workspace_buffer(bws, "up_pair", x.shape, grad.dtype)
            np.add(gx, np.add(g10, g11, out=pair), out=gx)
        np.add(gx, 0.0, out=gx)
        x._accumulate(gx)

    out._backward = backward
    if recorder is not None:
        out._replay = forward
    return out
