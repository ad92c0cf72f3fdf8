"""Captured-graph replay: trace one eager pass, re-run it in place.

The CUDA-graph / ``torch.compile`` idiom adapted to this repo's numpy
autodiff: the eager forward builds a Python op graph and allocates every
intermediate array *per call*, yet MSP-SQP, the serve batcher and ECO
refill evaluate the same-shaped graph hundreds to thousands of times.
:class:`CapturedGraph` runs the eager build **once** under
:func:`repro.nn.tensor.recording`, which makes every op attach a
``_replay`` closure that recomputes its output in place (``out=``
ufuncs) from its parents' live ``.data`` buffers.  The retained graph's
arrays are the workspace arena; replaying a call is:

1. copy the new input values into the traced input tensors' buffers,
2. run the replay closures in topological order (zero graph
   construction, zero intermediate allocation),
3. optionally re-run the recorded backward sweep over the *same* node
   list the trace used.

Fidelity
--------
Replays are bitwise identical to eager re-execution because every
closure applies the same ufuncs to the same operands in the same order;
the trace call *is* the first eager call, and the backward sweep reuses
the exact topological order :meth:`Tensor.backward` produced at trace
time (the eager order is deterministic for a fixed graph structure).
Parameter tensors are read live at replay time, so in-place optimizer
updates and ``load_state_dict`` re-binds flow into replays without
retracing; callers key plans on the module's ``_state_version`` to catch
re-binds that swap buffer objects (``load_state_dict``).

Parameter *gradients* are intentionally not recomputed on replay: the
plan temporarily clears ``requires_grad`` on parameter leaves during the
backward sweep, which skips the expensive weight-gradient kernels while
leaving the input gradient — the only gradient inference callers read —
bitwise unchanged.

Any structural mismatch (shape, missing input) raises
:class:`CaptureMiss`; callers fall back to eager execution, which is
always safe because eager and replay agree bitwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from .tensor import Array, Tensor, recording, topo_sort


class CaptureMiss(RuntimeError):
    """Replay inputs do not match the traced plan (shape/name)."""


class GraphRecorder:
    """Collects per-op workspace accounting during a trace."""

    def __init__(self) -> None:
        self.workspace_bytes = 0
        self.workspaces: list[dict] = []

    def note_workspace(self, nbytes: int) -> None:
        self.workspace_bytes += int(nbytes)

    def register_workspace(self, ws: dict) -> dict:
        """Track a lazily-filled scratch dict (conv im2col buffers etc.)
        so the plan's arena accounting sees buffers that only materialise
        on the first backward or replay."""
        self.workspaces.append(ws)
        return ws


def _full_topo(roots: Iterable[Tensor]) -> list[Tensor]:
    """Postorder (parents first) over *all* parents, grad-requiring or not."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in roots]
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
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


class CapturedGraph:
    """One traced forward+backward graph with a preallocated arena.

    Build with :meth:`trace`; re-execute with :meth:`replay`.  The trace
    itself performs a complete eager call, so its outputs/gradients are
    valid results for the call that triggered the trace.
    """

    def __init__(
        self,
        inputs: dict[str, Tensor],
        outputs: dict[str, Tensor],
        root: Tensor,
        recorder: GraphRecorder,
    ) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.root = root

        roots = list(outputs.values())
        if not any(t is root for t in roots):
            roots.append(root)
        everything = _full_topo(roots)
        self._forward_nodes = [n for n in everything if n._replay is not None]
        self._btopo = topo_sort(root)

        input_ids = {id(t) for t in inputs.values()}
        # Parameter leaves: grad-requiring tensors with no history that are
        # not plan inputs (conv weights, norm gains/biases).  Shared across
        # plans; replay skips their gradients.
        self._params = [
            n for n in self._btopo
            if not n._parents and n.requires_grad and id(n) not in input_ids
        ]
        param_ids = {id(p) for p in self._params}

        # Gradient arena: reuse the trace-time grad arrays for internal
        # nodes.  Input gradients were handed to the trace caller, so they
        # get fresh buffers to avoid mutating the caller's arrays later.
        for node in self._btopo:
            if id(node) in param_ids:
                continue
            if id(node) in input_ids or node.grad is None:
                node._grad_buf = np.empty_like(node.data)
            else:
                # asarray: eager backward stores numpy *scalars* for 0-d
                # grads, which cannot serve as in-place accumulation
                # targets; 0-d arrays hold the bitwise-identical value.
                node._grad_buf = np.asarray(node.grad)

        arena = recorder.workspace_bytes
        for node in everything:
            if id(node) in param_ids:
                continue
            if node.data.base is None:
                arena += node.data.nbytes
            if node._grad_buf is not None:
                arena += node._grad_buf.nbytes
        self._static_arena_bytes = arena
        self._workspaces = recorder.workspaces

    @property
    def arena_bytes(self) -> int:
        """Bytes held by the plan: retained graph arrays, gradient
        buffers, and per-op scratch (grows once, when the first replay
        warms the lazily-allocated conv workspaces)."""
        return self._static_arena_bytes + sum(
            buf.nbytes for ws in self._workspaces for buf in ws.values()
        )

    # ------------------------------------------------------------------
    @classmethod
    def trace(
        cls,
        build: Callable[[dict[str, Tensor]], dict[str, Tensor]],
        inputs: Mapping[str, Array],
        grad_inputs: Iterable[str] = (),
        root: str = "root",
        seed: Array | None = None,
    ) -> "CapturedGraph":
        """Run ``build`` eagerly under a recorder and freeze the graph.

        Args:
            build: receives ``{name: Tensor}`` leaves and returns named
                output tensors, one of which (``root``) is the backward
                root.
            inputs: example input arrays; their shapes define the plan
                signature.  The plan traces on copies, so later replays
                never write into the caller's arrays.
            grad_inputs: input names whose gradients callers will read.
                These are traced with ``requires_grad=True`` regardless
                of whether the triggering call wants gradients, so one
                plan serves both modes.
            seed: upstream gradient for the trace backward (defaults to
                ones) — pass the triggering call's seed so the trace
                result doubles as that call's answer.
        """
        grad_names = tuple(grad_inputs)
        recorder = GraphRecorder()
        tensors = {
            name: Tensor(np.array(value, dtype=float),
                         requires_grad=name in grad_names)
            for name, value in inputs.items()
        }
        with recording(recorder):
            outputs = build(dict(tensors))
        root_t = outputs[root]
        if grad_names:
            root_t.backward(seed, retain_graph=True)
        return cls(tensors, outputs, root_t, recorder)

    # ------------------------------------------------------------------
    def replay(
        self,
        values: Mapping[str, Array],
        *,
        seed: Array | None = None,
        want_grad: bool = True,
    ) -> None:
        """Re-execute the captured pass on new input values, in place.

        Results are read from ``self.outputs[...].data`` / :meth:`grad`
        afterwards (copy before handing them out — the buffers belong to
        the plan and are overwritten by the next replay).
        """
        for name, tensor in self.inputs.items():
            value = values.get(name)
            if value is None:
                raise CaptureMiss(f"missing input {name!r}")
            value = np.asarray(value)
            if value.shape != tensor.data.shape:
                raise CaptureMiss(
                    f"input {name!r}: shape {value.shape} != traced {tensor.data.shape}"
                )
            np.copyto(tensor.data, value)
        for node in self._forward_nodes:
            node._replay()
        if want_grad:
            self._replay_backward(seed)
        else:
            # Invalidate gradients from earlier passes: they describe a
            # previous input, and :meth:`grad` promises None here.
            for node in self._btopo:
                node.grad = None

    def _replay_backward(self, seed: Array | None) -> None:
        root = self.root
        for node in self._btopo:
            node.grad = None
        if seed is None:
            seed_arr: Array = np.ones_like(root.data)
        else:
            seed_arr = np.asarray(seed, dtype=root.data.dtype)
            if seed_arr.shape != root.data.shape:
                raise CaptureMiss(
                    f"seed shape {seed_arr.shape} != root shape {root.data.shape}"
                )
        for p in self._params:
            p.requires_grad = False
        try:
            root._accumulate(seed_arr)
            for node in reversed(self._btopo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            for p in self._params:
                p.requires_grad = True

    # ------------------------------------------------------------------
    def grad(self, name: str) -> Array | None:
        """Copy of the latest gradient for input ``name`` (None if the
        last replay skipped backward)."""
        g = self.inputs[name].grad
        return None if g is None else g.copy()

    def output(self, name: str) -> Array:
        """Copy of the latest value of output ``name``."""
        return self.outputs[name].data.copy()
