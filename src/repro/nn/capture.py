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
stale arena behind.  The backward sweep never writes a forward result
(its scratch and gradient slots are separate buffers), so re-running it
reproduces the full replay's gradient bit for bit.

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

Two plan modes
--------------
An *inference* plan (the default) computes no parameter gradients, not
even at trace time: it clears ``requires_grad`` on parameter leaves for
the backward sweep, which skips the weight-gradient kernels and leaves
the input gradient — the only gradient inference callers read — bitwise
unchanged.  A *parameter-gradient* plan (``param_grads=True``, one
training step of :func:`repro.surrogate.train.train_unet`) keeps them:
each sweep lends every parameter a gradient buffer of the plan's, so the
optimizer reads the eager gradients from ``.grad``.  It always runs the
forward — never the backward-only path — because a training forward
also moves batch-norm running statistics, and it keeps no leaf snapshot.

Lean arena
----------
A plan keeps only what must outlive a kernel call: the graph's forward
arrays and the arrays closures keep (padded conv inputs, masks, argmax
indices).  Pure scratch — the shifted-GEMM copies, pre-bias and
input-gradient correlations, flipped kernels — and the zero-bordered
dilate-pad maps come from the owner's
:class:`~repro.nn.dispatch.ScratchPool`, through per-call-site views
cached so a warm replay neither allocates nor reshapes.  Gradients
follow a slot plan built with the plan (:func:`_gradient_slots`): nodes
whose gradients are never live at the same time share one slot of the
pool, while inputs keep their own buffers and parameters borrow the
plan's.  One pool per owner is safe because an owner never runs two
plans at once (a network's replay under its plan lock; a training run's
one after another), so after a sweep only input and parameter ``.grad``
values are meaningful.  :attr:`CapturedGraph.arena_bytes` and
:func:`arena_bytes` count each distinct buffer once.

Any structural mismatch (shape, missing input) raises
:class:`CaptureMiss`; callers fall back to eager execution, which is
always safe because eager and replay agree bitwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from ..config import same_bits
from .dispatch import Scratch, ScratchPool
from .tensor import Array, Tensor, recording, topo_sort


class CaptureMiss(RuntimeError):
    """Replay inputs do not match the traced plan (shape/name)."""


class GraphRecorder:
    """Collects what a trace's closures keep, and hands out pooled
    scratch from the owner's pool."""

    def __init__(self, pool: ScratchPool) -> None:
        self.pool = pool
        self.retained: list[Array] = []
        self.scratches: list[Scratch] = []

    def retain(self, *arrays: Array) -> None:
        """Arrays a closure keeps across calls (padded inputs, masks)."""
        self.retained.extend(arrays)

    def scratch(self) -> Scratch:
        """A new call site's handle on the pool."""
        scratch = Scratch(self.pool)
        self.scratches.append(scratch)
        return scratch


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


def _gradient_slots(sweep: list[Tensor]) -> tuple[list[tuple[Tensor, int]],
                                                 list[tuple[int, np.dtype]]]:
    """Share gradient buffers among non-leaf nodes of a backward sweep.

    ``sweep`` is the backward order (root first).  A node's gradient is
    live from its first write — the seed for the root, else the first
    node of the sweep that accumulates into it — through its own step,
    whose backward reads it last.  A slot passes to a new node only if
    its last holder's final use comes strictly before the new node's
    first write: during the step that writes a node's parents the node
    still reads its own gradient.  Leaves (inputs, parameters) get no
    slot.

    Returns ``(node, slot)`` pairs and each slot's ``(size, dtype)``.
    """
    step = {id(node): i for i, node in enumerate(sweep)}
    first = {id(sweep[0]): -1}
    for i, node in enumerate(sweep):
        for parent in node._parents:
            if id(parent) in step:
                first.setdefault(id(parent), i)
    holders = sorted((n for n in sweep if n._parents),
                     key=lambda n: first.get(id(n), -1))
    free_after: list[int] = []
    sizes: list[tuple[int, np.dtype]] = []
    assignment = []
    for node in holders:
        start, size, dtype = first.get(id(node), -1), node.data.size, node.data.dtype
        free = [k for k, end in enumerate(free_after)
                if end < start and sizes[k][1] == dtype]
        fits = [k for k in free if sizes[k][0] >= size]
        if fits:
            slot = min(fits, key=lambda k: sizes[k][0])
        elif free:
            slot = max(free, key=lambda k: sizes[k][0])
        else:
            slot = len(sizes)
            free_after.append(0)
            sizes.append((0, dtype))
        free_after[slot] = step[id(node)]
        sizes[slot] = (max(sizes[slot][0], size), dtype)
        assignment.append((node, slot))
    return assignment, sizes


def _owner(array: Array) -> Array:
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def arena_bytes(plans: Iterable["CapturedGraph"]) -> int:
    """Bytes ``plans`` hold together, each distinct buffer counted once
    (plans of one owner share its scratch pool)."""
    held: dict[int, Array] = {}
    for plan in plans:
        held.update(plan.buffers())
    return sum(a.nbytes for a in held.values())


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
        param_grads: bool = False,
    ) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.root = root
        self.param_grads = param_grads

        roots = list(outputs.values())
        if not any(t is root for t in roots):
            roots.append(root)
        everything = _full_topo(roots)
        self._nodes = everything
        self._forward_nodes = [n for n in everything if n._replay is not None]
        self._btopo = topo_sort(root)

        input_ids = {id(t) for t in inputs.values()}
        # Parameter leaves: grad-requiring tensors with no history that are
        # not plan inputs (conv weights, norm gains/biases), shared across
        # plans.  Only a parameter-gradient plan computes their gradients,
        # into buffers of its own that it lends them for each sweep.
        self._params = [
            n for n in self._btopo
            if not n._parents and n.requires_grad and id(n) not in input_ids
        ]
        self._param_bufs = [np.empty(p.data.shape, p.data.dtype)
                            for p in self._params] if param_grads else []

        # Gradient buffers, C-ordered (the layout of eager gradient copies,
        # so reductions over gradients add in the eager order): inputs own
        # theirs; every other node of the sweep borrows a slot of the
        # owner's pool that no node live at the same time uses.
        for node in self._btopo:
            if id(node) in input_ids:
                node._grad_buf = np.empty(node.data.shape, node.data.dtype)
        self._pool = recorder.pool
        self._slot_of, self._slot_sizes = _gradient_slots(self._btopo[::-1])
        self._bind_slots()

        # Non-input leaves the forward reads (parameters, batch-norm
        # running statistics, constants), snapshotted after every forward
        # for the backward-only replay check.  A parameter-gradient plan
        # never takes that path, so it keeps no snapshot.
        self._leaves = [] if param_grads else [
            n for n in everything
            if not n._parents and n._replay is None and id(n) not in input_ids]
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
        self._recorder = recorder

    def _bind_slots(self) -> None:
        """Point every slot holder's gradient buffer at the pool's current
        slot buffers (again after the pool replaced one)."""
        flats = [self._pool.take(("grad", k), (size,), dtype)
                 for k, (size, dtype) in enumerate(self._slot_sizes)]
        for node, k in self._slot_of:
            node._grad_buf = flats[k][:node.data.size].reshape(node.data.shape)
        self._generation = self._pool.generation

    def buffers(self) -> dict[int, Array]:
        """Every array the plan holds, keyed by identity of the array that
        owns the memory: computed graph arrays and constants, gradient
        buffers, arrays closures keep, the pooled scratch its call sites
        view, and the leaf snapshot.  Parameters, and the module buffers
        leaves view, belong to the module."""
        arrays = [n.data for n in self._nodes
                  if n._parents or n.data.base is None]
        arrays += [n._grad_buf for n in self._btopo if n._grad_buf is not None]
        arrays += self._param_bufs + self._recorder.retained
        for scratch in self._recorder.scratches:
            arrays += scratch.views.values()
        arrays.append(self._leaf_values)
        held = {id(owner): owner for owner in map(_owner, arrays)}
        for p in self._params:
            held.pop(id(_owner(p.data)), None)
        return held

    @property
    def arena_bytes(self) -> int:
        """Bytes held by the plan (:meth:`buffers`), each buffer once;
        grows when the first replay warms the call sites' scratch."""
        return sum(a.nbytes for a in self.buffers().values())

    # ------------------------------------------------------------------
    @classmethod
    def trace(
        cls,
        build: Callable[[dict[str, Tensor]], dict[str, Tensor]],
        inputs: Mapping[str, Array],
        grad_inputs: Iterable[str] = (),
        root: str = "root",
        seed: Array | None = None,
        *,
        param_grads: bool = False,
        pool: ScratchPool | None = None,
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
            param_grads: make a parameter-gradient plan (a training
                step): every sweep leaves the parameters' ``.grad`` set,
                and every replay runs the forward.
            pool: the owner's scratch pool, shared by all its plans
                (a private one if omitted).

        The trace's backward is the plan's own sweep, which yields the
        eager gradients bit for bit without the per-node allocations of
        an eager backward; an inference plan also skips the
        weight-gradient kernels.
        """
        grad_names = tuple(grad_inputs)
        recorder = GraphRecorder(pool if pool is not None else ScratchPool())
        tensors = {
            name: Tensor(np.array(value, dtype=float),
                         requires_grad=name in grad_names)
            for name, value in inputs.items()
        }
        with recording(recorder):
            outputs = build(dict(tensors))
        plan = cls(tensors, outputs, outputs[root], recorder,
                   param_grads=param_grads)
        if grad_names or param_grads:
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
        (or the parameters' ``.grad``) afterwards (copy before handing
        them out — the buffers belong to the plan and are overwritten by
        the next replay).

        Returns:
            ``True`` when the call was a backward-only replay: it wanted
            the gradient of the forward the arena already holds (see the
            module docstring), so only the backward sweep ran.  Never
            for a parameter-gradient plan.
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
        if (want_grad and not self.param_grads
                and self._holds_forward(arrays)):
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
        if self._generation != self._pool.generation:
            self._bind_slots()
        for node in self._btopo:
            node.grad = None
        params = self._params
        for p, buf in zip(params, self._param_bufs):
            p._grad_buf = buf
        if not self.param_grads:
            # Inference callers read only input gradients: skip the
            # weight-gradient kernels (the input gradient is unchanged).
            for p in params:
                p.requires_grad = False
        try:
            self.root._accumulate(seed_arr)
            for node in reversed(self._btopo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            for p in params:
                p.requires_grad = True
                p._grad_buf = None

    # ------------------------------------------------------------------
    def grad(self, name: str) -> Array | None:
        """Copy of the latest gradient for input ``name`` (None if the
        last replay skipped backward)."""
        g = self.inputs[name].grad
        return None if g is None else g.copy()

    def output(self, name: str) -> Array:
        """Copy of the latest value of output ``name``."""
        return self.outputs[name].data.copy()
