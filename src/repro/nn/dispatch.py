"""Shape-rule kernel dispatch for the conv hot paths.

Every convolution in this code base — ``conv2d`` forwards *and* its
input/weight adjoints — reduces to two primitives:

* :func:`corr2d` — valid 2-D cross-correlation of a (pre-padded) input
  with a kernel stack;
* :func:`corr2d_weight_grad` — the correlation of an upstream gradient
  with the input windows that produces a kernel-shaped gradient.

Each primitive has two interchangeable backends:

``im2col``
    The :func:`numpy.lib.stride_tricks.sliding_window_view` + ``einsum``
    formulation.  Robust for every shape/stride; the parity reference
    the other backend is validated against.
``matmul``
    Channels-last shifted-GEMM accumulation; degenerates to a single
    matmul for 1x1 kernels (the pointwise fast path).  Wins for the
    small kernels the UNet runs, where the im2col window copy dominates.

A pure shape rule picks the backend (:func:`_heuristic`): ``matmul`` for
1x1 kernels and for forward correlations with kernels up to 3x3,
``im2col`` otherwise.  The choice depends only on the op and the kernel
shape — never on timing, the host or a file — so a call gives the same
bits in every process.  Decisions are memoised per
``(op, shape, kernel, stride, dtype)`` key; :func:`plan_table` exposes
them to benches and tests.
"""

from __future__ import annotations

import math
import time
import weakref
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

Array = np.ndarray


class ScratchPool:
    """The memory every captured plan of one owner views.

    An owner never runs two plans at once (a network's plans replay under
    its plan lock, a training run's one after another), so one buffer
    can serve each role for all of them:

    * flat buffers (:meth:`take`), one per role, grown to the largest
      request: pure scratch, written and read within one kernel call (the
      shifted-GEMM copies, the input-gradient correlations, the flipped
      kernels, the pooling and activation masks); and, for
      :mod:`repro.nn.capture`, the gradient slots, the forward array of
      each trace position and the leaf snapshot;
    * zero-bordered maps (:meth:`map`: a conv's padded input, the
      dilate-pad map of a conv input gradient), which keep their zeros
      between calls, one per interior and per-image shape, holding the
      largest batch; a smaller batch views its first images.

    When a request outgrows a buffer the pool replaces it and bumps
    ``generation``; the capture module then re-binds every plan in
    ``plans`` to the new buffer, so the superseded one is freed with the
    call that replaced it.  ``forward_owner`` is a weak reference to the
    plan whose forward the forward buffers hold (``None`` while a forward
    is in flight).  :meth:`keep` frees what the live plans do not view.
    """

    def __init__(self) -> None:
        self._flat: dict[tuple, Array] = {}
        self._maps: dict[tuple, Array] = {}
        self.generation = 0
        self.plans: weakref.WeakSet = weakref.WeakSet()
        self.forward_owner: weakref.ref | None = None

    def take(self, role, shape: tuple, dtype=np.float64) -> Array:
        """A C-ordered ``shape`` view of the role's flat buffer."""
        size = math.prod(shape)
        key = (role, np.dtype(dtype))
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            if flat is not None:
                self.generation += 1
            flat = self._flat[key] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)

    def map(self, interior: tuple, shape: tuple, dtype=np.float64) -> Array:
        """The zero-initialised ``(B, ...)`` map whose users all write the
        positions ``interior`` names (e.g. ``("pad", 1)``), so the rest
        stays zero: the first ``B`` images of the map for this interior
        and per-image shape, so every image keeps its zero border."""
        key = (interior, shape[1:], np.dtype(dtype))
        buf = self._maps.get(key)
        if buf is None or len(buf) < shape[0]:
            if buf is not None:
                self.generation += 1
            buf = self._maps[key] = np.zeros(shape, dtype=dtype)
        return buf[:shape[0]]

    def keep(self, owners: Iterable[Array]) -> None:
        """Free every buffer that is not one of ``owners`` (the arrays
        the live plans' views belong to), so the buffers only evicted
        plans viewed go with them."""
        held = {id(owner) for owner in owners}
        self._flat = {key: buf for key, buf in self._flat.items()
                      if id(buf) in held}
        self._maps = {key: buf for key, buf in self._maps.items()
                      if id(buf) in held}


class Scratch:
    """One call site's handle on its owner's :class:`ScratchPool`.

    :meth:`get` caches one view per role and :meth:`map` the call site's
    zero-bordered maps, so a warm replay neither allocates nor reshapes;
    :meth:`rebind` points them at the pool's current buffers after it
    replaced some.
    """

    __slots__ = ("pool", "views", "maps")

    def __init__(self, pool: ScratchPool) -> None:
        self.pool = pool
        self.views: dict[str, Array] = {}
        self.maps: dict[tuple, Array] = {}

    def get(self, role: str, shape: tuple, dtype=np.float64) -> Array:
        view = self.views.get(role)
        if view is None or view.shape != shape:
            view = self.views[role] = self.pool.take(role, shape, dtype)
        return view

    def map(self, interior: tuple, shape: tuple, dtype=np.float64) -> Array:
        """The pool's zero-bordered map (:meth:`ScratchPool.map`)."""
        key = (interior, shape)
        buf = self.maps.get(key)
        if buf is None:
            buf = self.maps[key] = self.pool.map(interior, shape, dtype)
        return buf

    def rebind(self) -> None:
        """Re-take every cached view and map from the pool (flat buffers
        and maps only grow, so this never replaces one)."""
        for role, view in self.views.items():
            self.views[role] = self.pool.take(role, view.shape, view.dtype)
        for (interior, shape), buf in self.maps.items():
            self.maps[interior, shape] = self.pool.map(interior, shape,
                                                       buf.dtype)


def workspace_buffer(workspace: Scratch | None, name: str, shape: tuple,
                     dtype=np.float64) -> Array:
    """Scratch for one kernel call: a fresh array in eager mode, the call
    site's pooled view under captured replay.  Shape, layout and dtype
    are identical either way, so results are bitwise equal."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.get(name, shape, dtype)


# ----------------------------------------------------------------------
# forward primitive: valid cross-correlation
#   out[b, o, h, w] = sum_{c,i,j} xp[b, c, h*s + i, w*s + j] * w[o, c, i, j]
# ----------------------------------------------------------------------
def _bias_write(out: Array | None, result: Array, bias: Array | None) -> Array:
    """``result`` (+ ``bias`` per output channel) written to ``out``, or
    to a new C-ordered array: one pass, the bias add fused into the copy."""
    if out is None:
        out = np.empty(result.shape, dtype=result.dtype)
    if bias is None:
        np.copyto(out, result)
    else:
        np.add(result, bias.reshape(1, -1, 1, 1), out=out)
    return out


def _corr_im2col(xp: Array, w: Array, stride: int, out: Array | None = None,
                 workspace: Scratch | None = None,
                 bias: Array | None = None) -> Array:
    kh, kw = w.shape[2:]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    res = np.einsum("bchwij,ocij->bohw", win, w, optimize=True, out=out)
    if bias is not None:
        res = np.add(res, bias.reshape(1, -1, 1, 1), out=out)
    return res


def _corr_matmul(xp: Array, w: Array, stride: int, out: Array | None = None,
                 workspace: Scratch | None = None,
                 bias: Array | None = None) -> Array:
    O, C, kh, kw = w.shape
    B, _, H, W = xp.shape
    Ho = (H - kh) // stride + 1
    Wo = (W - kw) // stride + 1
    dtype = np.result_type(xp, w)
    if kh == 1 and kw == 1:
        x = xp[:, :, ::stride, ::stride] if stride > 1 else xp
        res = np.tensordot(w[:, :, 0, 0], x, axes=([1], [1]))  # (O, B, Ho, Wo)
        return _bias_write(out, res.transpose(1, 0, 2, 3), bias)
    # Channels-last input; each kernel tap is then a strided view feeding
    # one GEMM.  An input that already is a channels-last map viewed as
    # (B, C, H, W) is read in place, any other is copied into that
    # layout first, so the GEMM operands (and therefore the accumulation
    # order and bit patterns) are the same either way.
    xs = xp.transpose(0, 2, 3, 1)
    if not xs.flags.c_contiguous:
        buf = workspace_buffer(workspace, "mm_xs", (B, H, W, C), xp.dtype)
        np.copyto(buf, xs)
        xs = buf
    wt = workspace_buffer(workspace, "mm_wt", (kh, kw, C, O), w.dtype)
    np.copyto(wt, w.transpose(2, 3, 1, 0))
    acc = workspace_buffer(workspace, "mm_acc", (B, Ho, Wo, O), dtype)
    blk = workspace_buffer(workspace, "mm_blk", (B, Ho, Wo, O), dtype)
    for i in range(kh):
        for j in range(kw):
            tap = xs[:, i : i + (Ho - 1) * stride + 1 : stride,
                     j : j + (Wo - 1) * stride + 1 : stride, :]
            np.matmul(tap, wt[i, j], out=acc if (i, j) == (0, 0) else blk)
            if (i, j) != (0, 0):
                np.add(acc, blk, out=acc)
    # A new array, never a workspace-backed view, unless ``out`` is given.
    return _bias_write(out, acc.transpose(0, 3, 1, 2), bias)


# ----------------------------------------------------------------------
# weight-gradient primitive
#   gw[o, c, i, j] = sum_{b,h,w} g[b, o, h, w] * xp[b, c, h*s + i, w*s + j]
# ----------------------------------------------------------------------
def _wgrad_im2col(g: Array, xp: Array, kh: int, kw: int, stride: int,
                  out: Array | None = None,
                  workspace: Scratch | None = None) -> Array:
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bohw,bchwij->ocij", g, win, optimize=True, out=out)


def _wgrad_matmul(g: Array, xp: Array, kh: int, kw: int, stride: int,
                  out: Array | None = None,
                  workspace: Scratch | None = None) -> Array:
    B, O, Ho, Wo = g.shape
    C = xp.shape[1]
    gw = out if out is not None else np.empty(
        (O, C, kh, kw), dtype=np.result_type(g, xp)
    )
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, :, i : i + (Ho - 1) * stride + 1 : stride,
                     j : j + (Wo - 1) * stride + 1 : stride]
            gw[:, :, i, j] = np.tensordot(g, tap, axes=([0, 2, 3], [0, 2, 3]))
    return gw


_CORR_BACKENDS: dict[str, Callable[..., Array]] = {
    "im2col": _corr_im2col,
    "matmul": _corr_matmul,
}
_WGRAD_BACKENDS: dict[str, Callable[..., Array]] = {
    "im2col": _wgrad_im2col,
    "matmul": _wgrad_matmul,
}


# ----------------------------------------------------------------------
# plan table
# ----------------------------------------------------------------------
_plans: dict[str, dict] = {}
_key_memo: dict[tuple, str] = {}


def _plan_key(op: str, B: int, C: int, H: int, W: int, O: int,
              kh: int, kw: int, stride: int, dtype) -> str:
    memo = (op, B, C, H, W, O, kh, kw, stride, dtype)
    key = _key_memo.get(memo)
    if key is None:
        key = f"{op}|b{B}c{C}h{H}w{W}o{O}k{kh}x{kw}s{stride}|{dtype}"
        _key_memo[memo] = key
    return key


def _heuristic(op: str, kh: int, kw: int) -> str:
    # The shape rule, applied at every map size.  Forward correlations:
    # the shifted-GEMM backend beats im2col's window materialisation for
    # small kernels (one GEMM per tap, no column copy), and degenerates
    # to a single matmul for 1x1.  The
    # weight-grad adjoint contracts over the batch *and* both spatial
    # axes, which the einsum formulation handles in one fused pass, so
    # it stays on im2col except for pointwise kernels.
    if kh == 1 and kw == 1:
        return "matmul"
    if op == "corr" and kh * kw <= 9:
        return "matmul"
    return "im2col"


def _dispatch(op: str, key: str, kh: int, kw: int,
              run: Callable[[str, Array | None], Array], tag: str = "",
              out: Array | None = None) -> Array:
    """Run ``run(backend, out)`` with the rule's backend for ``key``.

    When obs is enabled the call is also timed and recorded as a per-op
    span plus aggregate call counts / latency.  Tracing off costs
    nothing and perturbs nothing: timing adds no arithmetic to the conv
    result either way.
    """
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = {"backend": _heuristic(op, kh, kw),
                              "source": "heuristic"}
    backend = plan["backend"]
    tracer = obs_trace.active()
    if tracer is None:
        return run(backend, out)
    t0 = time.perf_counter()
    result = run(backend, out)
    dur = time.perf_counter() - t0
    name = f"nn.{op}.{tag}" if tag else f"nn.{op}"
    tracer.record_span(name, "nn", dur, backend=backend, key=key)
    registry = obs_metrics.registry()
    registry.incr(f"{name}.calls")
    registry.record_latency(name, dur)
    return result


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def corr2d(xp: Array, w: Array, stride: int = 1, tag: str = "",
           out: Array | None = None, workspace: Scratch | None = None,
           bias: Array | None = None) -> Array:
    """Valid cross-correlation ``xp (B,C,H,W) * w (O,C,kh,kw)``, plus
    ``bias`` (``(O,)``) per output channel when given.

    ``xp`` must already carry any zero padding; it may be a channels-last
    ``(B, H, W, C)`` map viewed as ``(B, C, H, W)``, which the
    shifted-GEMM backend reads without a copy.  The shape rule picks the
    backend (see module docstring).  ``tag`` labels the call for
    observability only (``"fwd"`` / ``"bwd_input"`` from the conv
    layers); it never affects dispatch or numerics.  ``out`` receives the
    result in place and ``workspace`` (a call site's :class:`Scratch`)
    supplies pooled scratch under captured replay; values are
    bitwise identical either way — backends that cannot write in place
    compute normally and copy, backends without scratch ignore it.  The
    bias add is the same elementwise add as ``result + bias``, done in
    the backend's output write.
    """
    B, C, H, W = xp.shape
    O, _, kh, kw = w.shape
    key = _plan_key("corr", B, C, H, W, O, kh, kw, stride, xp.dtype)
    return _dispatch(
        "corr", key, kh, kw,
        lambda name, dst: _CORR_BACKENDS[name](xp, w, stride, out=dst,
                                               workspace=workspace, bias=bias),
        tag=tag, out=out,
    )


def corr2d_weight_grad(g: Array, xp: Array, kh: int, kw: int,
                       stride: int = 1, tag: str = "",
                       out: Array | None = None,
                       workspace: Scratch | None = None) -> Array:
    """Kernel-shaped adjoint ``gw[o,c,i,j] = sum g[b,o,h,w] xp[b,c,hs+i,ws+j]``."""
    B, C, H, W = xp.shape
    O = g.shape[1]
    key = _plan_key("wgrad", B, C, H, W, O, kh, kw, stride, xp.dtype)
    return _dispatch(
        "wgrad", key, kh, kw,
        lambda name, dst: _WGRAD_BACKENDS[name](g, xp, kh, kw, stride, out=dst,
                                                workspace=workspace),
        tag=tag, out=out,
    )


def plan_table() -> dict[str, dict]:
    """A copy of the memoised backend decisions (for benches and tests)."""
    return {key: dict(plan) for key, plan in _plans.items()}


def clear_caches() -> None:
    """Drop the memoised plan decisions and plan keys."""
    _plans.clear()
    _key_memo.clear()
