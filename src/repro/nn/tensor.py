"""Reverse-mode automatic differentiation on numpy arrays.

This is the reproduction's stand-in for PyTorch's autograd: the paper's
central move is to express the CMP model as a network so that gradients
come from *backward propagation* (Eqs. 7-9) instead of thousands of
finite-difference simulator calls.  :class:`Tensor` records the compute
graph during the forward pass; :meth:`Tensor.backward` walks it once in
reverse topological order, giving the exact gradient at roughly the cost
of one extra forward pass.

Only the ops the CMP network needs are implemented, but they are
implemented generally (full numpy broadcasting, arbitrary shapes).
Convolution and pooling live in :mod:`repro.nn.conv`; additional
activations and reductions in :mod:`repro.nn.functional`.

Graph capture (:mod:`repro.nn.capture`)
---------------------------------------
While a recorder is installed via :func:`recording`, every op attaches a
``_replay`` closure to its output that recomputes ``out.data`` **in
place** (``out=``-style ufuncs) from the parents' live ``.data`` arrays
and refreshes any state the backward closure captured (the sigmoid
value); state only a backward reads, such as masks, is built by the
backward.  The retained eager graph then doubles as a preallocated
workspace arena: re-running the closures in topological order replays
the identical forward pass with zero graph construction and zero new
intermediate arrays, bitwise equal to eager because every closure uses
the same ufunc on the same operands.  Each op output that owns its
memory is moved into the owner's scratch pool as it is built
(:meth:`repro.nn.capture.GraphRecorder.adopt`), so closures read
``out.data``, never an array the op computed before.  Ops whose output
is a numpy *view* of a parent (reshape/transpose/basic slicing) need no
closure at all — in-place parent updates propagate through the view.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray

# ----------------------------------------------------------------------
# graph capture hook (consumed by repro.nn.capture)
# ----------------------------------------------------------------------
_TRACE = threading.local()


def capture_recorder():
    """This thread's active graph recorder, or ``None`` in eager mode.

    Ops consult it to decide whether to attach ``_replay`` closures; the
    recorder (:class:`repro.nn.capture.GraphRecorder`) also takes the
    arrays their closures keep and hands out pooled scratch.
    """
    return getattr(_TRACE, "recorder", None)


@contextmanager
def recording(recorder) -> Iterator[None]:
    """Install ``recorder`` as this thread's capture recorder."""
    previous = getattr(_TRACE, "recorder", None)
    _TRACE.recorder = recorder
    try:
        yield
    finally:
        _TRACE.recorder = previous


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def _pow_value(base: Array, exponent: float, out: Array | None = None) -> Array:
    """Scalar power with explicit fast paths, shared by the eager forward
    and the capture replay so both are bitwise identical by construction
    (numpy's ``**`` fast-path set would otherwise be an implementation
    detail the replay could diverge from)."""
    if out is None:
        out = np.empty_like(base)
    if exponent == 2.0:
        np.square(base, out=out)
    elif exponent == 0.5:
        np.sqrt(base, out=out)
    elif exponent == 1.0:
        np.copyto(out, base)
    elif exponent == -1.0:
        np.reciprocal(base, out=out)
    else:
        np.power(base, exponent, out=out)
    return out


class Tensor:
    """A numpy array with an optional gradient and autodiff history.

    Attributes:
        data: the underlying numpy array, always ``float64`` (the one
            precision the surrogate computes in).
        grad: accumulated gradient (same shape as ``data``) after
            :meth:`backward`, else ``None``.
        requires_grad: whether this tensor participates in autodiff.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_replay", "_grad_buf", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[Array], None] | None = None,
    ):
        self.data = _as_array(data)
        if _parents and self.data.base is None:
            recorder = capture_recorder()
            if recorder is not None:
                # Under capture an op output lives in the owner's pool,
                # at its trace position; closures read ``out.data``.
                self.data = recorder.adopt(self.data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self._parents = tuple(_parents)
        self._backward = _backward
        #: In-place forward recomputation installed under capture tracing
        #: (None in eager mode and for view/leaf nodes).
        self._replay: Callable[[], None] | None = None
        #: Gradient arena slot assigned by a captured plan; when set,
        #: :meth:`_accumulate` reuses it instead of allocating.
        self._grad_buf: Array | None = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> Array:
        """The raw array (shared, do not mutate)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor (any shape), as a float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    def _accumulate(self, grad: Array) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            buf = self._grad_buf
            if buf is None:
                self.grad = grad.copy()
            else:
                np.copyto(buf, grad)
                self.grad = buf
        elif self.grad is self._grad_buf:
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data + other.data, _parents=(self, other))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.add(self.data, other.data, out=out.data)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.negative(self.data, out=out.data)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data * other.data, _parents=(self, other))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.multiply(self.data, other.data, out=out.data)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data / other.data, _parents=(self, other))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.divide(self.data, other.data, out=out.data)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        exponent = float(exponent)
        out = Tensor(_pow_value(self.data, exponent), _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: _pow_value(self.data, exponent, out=out.data)
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")
        out = Tensor(self.data @ other.data, _parents=(self, other))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                )

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.matmul(self.data, other.data, out=out.data)
        return out

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        out._backward = backward
        if capture_recorder() is not None and not np.may_share_memory(
            out.data, self.data
        ):
            # Copy-reshape (non-contiguous source): refresh the C-order
            # copy in place.  View outputs need no closure at all.
            out._replay = lambda: np.copyto(
                out.data.reshape(self.data.shape), self.data
            )
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = Tensor(self.data.transpose(axes), _parents=(self,))
        inverse = np.argsort(axes)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        out._backward = backward
        if capture_recorder() is not None and not np.may_share_memory(
            out.data, self.data
        ):
            out._replay = lambda: np.copyto(out.data, self.data.transpose(axes))
        return out

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        out._backward = backward
        if capture_recorder() is not None and not np.may_share_memory(
            out.data, self.data
        ):
            out._replay = lambda: np.copyto(out.data, self.data[key])
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,))

        def backward(grad: Array) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.sum(
                self.data, axis=axis, keepdims=keepdims, out=out.data
            )
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # elementwise nonlinearities (core set; more in functional.py)
    # ------------------------------------------------------------------
    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data), _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.absolute(self.data, out=out.data)
        return out

    def exp(self) -> "Tensor":
        out = Tensor(np.exp(self.data), _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad * out.data)

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.exp(self.data, out=out.data)
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), _parents=(self,))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        out._backward = backward
        if capture_recorder() is not None:
            out._replay = lambda: np.log(self.data, out=out.data)
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Array | None = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Args:
            grad: upstream gradient; defaults to ones (i.e. ``d self /
                d self = 1``), the usual choice for scalar losses.
            retain_graph: keep ``_parents``/``_backward`` references after
                the sweep.  By default they are dropped so a long-lived
                result tensor no longer pins every intermediate of its
                forward graph in memory; pass True to backpropagate
                through the same graph again (graph capture does).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        topo = topo_sort(self)

        seed = np.ones_like(self.data) if grad is None else _as_array(grad)
        if seed.shape != self.data.shape:
            raise ValueError(f"grad shape {seed.shape} != tensor shape {self.data.shape}")
        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        if not retain_graph:
            for node in topo:
                node._backward = None
                node._parents = ()


def topo_sort(root: Tensor) -> list[Tensor]:
    """Topological order of ``root``'s gradient-requiring ancestry.

    Exactly the order :meth:`Tensor.backward` sweeps (parents before
    children; the reverse sweep visits children first).  Shared with the
    capture executor so a replayed backward pass walks the identical
    node sequence — and therefore accumulates gradients in the identical
    floating-point order — as the eager pass it traced.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return topo
