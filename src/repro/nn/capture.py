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

Backward-only replay
--------------------
An optimiser often asks for the gradient at the very point it has just
evaluated forward-only (the accepted line-search trial).  The arena still
holds that forward, so a gradient call skips steps 1 and 2 and runs only
the backward sweep when (a) every input is bitwise equal to the inputs
of the plan's last *completed* forward and (b) every non-input leaf the
forward read (parameters, batch-norm running statistics, constants)
still holds the values it had then.  (b) is checked against a value
snapshot taken at the end of every forward, so in-place writes to a
parameter or running statistic are caught; re-binds are the plan key's
job (``_state_version``).  Inputs are validated before any is copied,
and the forward is marked current only after its last closure returns,
so a :class:`CaptureMiss` or an exception mid-replay never leaves a
stale arena behind.  The backward sweep never writes forward buffers,
so re-running it reproduces the full replay's gradient bit for bit.

Fidelity
--------
Replays are bitwise identical to eager re-execution because every
closure applies the same ufuncs to the same operands in the same order;
the trace call's forward *is* the first eager forward, and every backward
sweep — the trace call's included — walks the exact topological order
:meth:`Tensor.backward` would (the eager order is deterministic for a
fixed graph structure) into C-ordered gradient buffers, the layout of
eager gradient copies.
Parameter tensors are read live at replay time, so in-place optimizer
updates and ``load_state_dict`` re-binds flow into replays without
retracing; callers key plans on the module's ``_state_version`` to catch
re-binds that swap buffer objects (``load_state_dict``).

Parameter *gradients* are intentionally not computed by a plan, not
even at trace time: the plan temporarily clears ``requires_grad`` on
parameter leaves during the backward sweep, which skips the expensive
weight-gradient kernels while leaving the input gradient — the only
gradient inference callers read — bitwise unchanged.

Any structural mismatch (shape, missing input) raises
:class:`CaptureMiss`; callers fall back to eager execution, which is
always safe because eager and replay agree bitwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from ..config import same_bits
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
    runs the forward eagerly and the backward through the plan, so its
    outputs/gradients are valid results for the call that triggered it.
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

        # Gradient arena: one C-ordered buffer per non-parameter node of
        # the sweep — the layout an eager backward's gradient copies have,
        # so reductions over gradients add in the eager order.
        for node in self._btopo:
            if id(node) not in param_ids:
                node._grad_buf = np.empty(node.data.shape, node.data.dtype)

        arena = recorder.workspace_bytes
        for node in everything:
            if id(node) in param_ids:
                continue
            if node.data.base is None:
                arena += node.data.nbytes
            if node._grad_buf is not None:
                arena += node._grad_buf.nbytes
        # Non-input leaves the forward reads (parameters, batch-norm
        # running statistics, constants), snapshotted after every forward
        # for the backward-only replay check.
        self._leaves = [n for n in everything
                        if not n._parents and n._replay is None
                        and id(n) not in input_ids]
        self._leaf_values = np.empty(sum(n.data.size for n in self._leaves))
        self._leaf_views, offset = [], 0
        for n in self._leaves:
            self._leaf_views.append(
                self._leaf_values[offset:offset + n.data.size]
                .reshape(n.data.shape))
            offset += n.data.size
        self._snapshot_leaves()
        # The trace itself was a completed eager forward on these inputs.
        self._forward_current = True
        arena += self._leaf_values.nbytes

        self._static_arena_bytes = arena
        self._workspaces = recorder.workspaces

    @property
    def arena_bytes(self) -> int:
        """Bytes held by the plan: retained graph arrays, gradient
        buffers, the leaf-value snapshot, and per-op scratch (grows once,
        when the first replay warms the lazily-allocated conv
        workspaces)."""
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

        The trace's backward is the plan's own sweep (parameter gradients
        skipped, gradients accumulated in the arena), which yields the
        eager input gradient bit for bit without the weight-gradient
        kernels or the per-node allocations of an eager backward.
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
        plan = cls(tensors, outputs, outputs[root], recorder)
        if grad_names:
            plan._replay_backward(plan._seed_array(seed))
        return plan

    # ------------------------------------------------------------------
    def replay(
        self,
        values: Mapping[str, Array],
        *,
        seed: Array | None = None,
        want_grad: bool = True,
    ) -> bool:
        """Re-execute the captured pass on new input values, in place.

        Results are read from ``self.outputs[...].data`` / :meth:`grad`
        afterwards (copy before handing them out — the buffers belong to
        the plan and are overwritten by the next replay).

        Returns:
            ``True`` when the call was a backward-only replay: it wanted
            the gradient of the forward the arena already holds (see the
            module docstring), so only the backward sweep ran.
        """
        arrays = []
        for name, tensor in self.inputs.items():
            value = values.get(name)
            if value is None:
                raise CaptureMiss(f"missing input {name!r}")
            value = np.asarray(value, dtype=tensor.data.dtype)
            if value.shape != tensor.data.shape:
                raise CaptureMiss(
                    f"input {name!r}: shape {value.shape} != traced {tensor.data.shape}"
                )
            arrays.append((tensor, value))
        seed_arr = self._seed_array(seed) if want_grad else None
        if want_grad and self._holds_forward(arrays):
            self._replay_backward(seed_arr)
            return True
        self._forward_current = False
        for tensor, value in arrays:
            np.copyto(tensor.data, value)
        for node in self._forward_nodes:
            node._replay()
        self._snapshot_leaves()
        self._forward_current = True
        if want_grad:
            self._replay_backward(seed_arr)
        else:
            # Invalidate gradients from earlier passes: they describe a
            # previous input, and :meth:`grad` promises None here.
            for node in self._btopo:
                node.grad = None
        return False

    def _snapshot_leaves(self) -> None:
        """Copy every non-input leaf's value into the snapshot (reading
        ``.data`` live, so a re-bound array is seen too)."""
        for view, n in zip(self._leaf_views, self._leaves):
            np.copyto(view, n.data)

    def _holds_forward(self, arrays: list[tuple[Tensor, Array]]) -> bool:
        """Whether the arena holds a completed forward on exactly these
        inputs, with every non-input leaf unchanged since."""
        if not self._forward_current:
            return False
        if not all(same_bits(value, tensor.data) for tensor, value in arrays):
            return False
        # A transient gather, not a second per-plan buffer: only calls
        # whose inputs already match get here.
        current = np.concatenate(
            [n.data.reshape(-1) for n in self._leaves] or [np.empty(0)])
        return same_bits(current, self._leaf_values)

    def _seed_array(self, seed: Array | None) -> Array:
        root = self.root
        if seed is None:
            return np.ones_like(root.data)
        seed_arr = np.asarray(seed, dtype=root.data.dtype)
        if seed_arr.shape != root.data.shape:
            raise CaptureMiss(
                f"seed shape {seed_arr.shape} != root shape {root.data.shape}"
            )
        return seed_arr

    def _replay_backward(self, seed_arr: Array) -> None:
        root = self.root
        for node in self._btopo:
            node.grad = None
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
