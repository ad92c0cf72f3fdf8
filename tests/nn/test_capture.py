"""Captured-graph replay: bitwise parity, arena reuse, graph teardown.

Every parity assertion here is *bitwise* (``np.array_equal``, not
``allclose``): the capture executor's contract is that replaying a traced
plan on new inputs produces exactly the arrays a fresh eager execution
would — same ufuncs, same operands, same accumulation order.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import UNet
from repro.nn import functional as F
from repro.nn.capture import CaptureMiss, CapturedGraph, arena_bytes
from repro.nn.conv import conv2d, max_pool2d, upsample2x
from repro.nn.dispatch import Scratch, ScratchPool
from repro.nn.tensor import Tensor


def eager_reference(build, values, seed=None):
    """Fresh eager forward+backward; returns (root value, x grad)."""
    tensors = {
        name: Tensor(v, requires_grad=(name == "x"))
        for name, v in values.items()
    }
    out = build(tensors)["root"]
    out.backward(seed)
    return out.data.copy(), tensors["x"].grad.copy()


def assert_replay_matches_eager(build, trace_values, replay_values,
                                seed=None):
    plan = CapturedGraph.trace(build, trace_values, grad_inputs=("x",),
                               seed=seed)
    # The trace IS the first eager call.
    value0, grad0 = eager_reference(build, trace_values, seed)
    assert np.array_equal(plan.outputs["root"].data, value0)
    assert np.array_equal(plan.grad("x"), grad0)

    plan.replay(replay_values, seed=seed)
    value1, grad1 = eager_reference(build, replay_values, seed)
    assert np.array_equal(plan.outputs["root"].data, value1)
    assert np.array_equal(plan.grad("x"), grad1)
    return plan


def rng_arrays(*shapes, seed=0, lo=0.1, hi=2.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi, size=s) for s in shapes]


class TestOpParity:
    """One composite graph per op family, replayed on fresh values."""

    @pytest.mark.parametrize("name,fn", [
        ("add", lambda t: (t["x"] + t["y"]).sum()),
        ("radd_scalar", lambda t: (3.0 + t["x"]).sum()),
        ("neg_sub", lambda t: (t["x"] - t["y"]).sum()),
        ("mul", lambda t: (t["x"] * t["y"]).sum()),
        ("div", lambda t: (t["x"] / t["y"]).sum()),
        ("pow_square", lambda t: (t["x"] ** 2.0).sum()),
        ("pow_sqrt", lambda t: (t["x"] ** 0.5).sum()),
        ("pow_recip", lambda t: (t["x"] ** -1.0).sum()),
        ("pow_general", lambda t: (t["x"] ** 1.7).sum()),
        ("abs", lambda t: (t["x"] - 1.0).abs().sum()),
        ("exp", lambda t: t["x"].exp().sum()),
        ("log", lambda t: t["x"].log().sum()),
        ("mean_var", lambda t: t["x"].var(axis=(0, 1)).sum()),
        ("reshape", lambda t: (t["x"].reshape(6, 4) ** 2.0).sum()),
        ("transpose",
         lambda t: (t["x"].transpose(1, 0, 2) * t["x"].transpose(1, 0, 2)).sum()),
        ("getitem", lambda t: (t["x"][1:, :, ::2] ** 2.0).sum()),
        ("relu", lambda t: F.relu(t["x"] - 1.0).sum()),
        ("sigmoid", lambda t: F.sigmoid(t["x"] - 1.0).sum()),
        ("maximum", lambda t: F.maximum(t["x"] - 1.0, 0.0).sum()),
        ("minimum", lambda t: F.minimum(t["x"], t["y"]).sum()),
        ("concat",
         lambda t: F.concat([t["x"], t["x"] * 2.0], axis=1).sum()),
        ("pad2d", lambda t: (F.pad2d(t["x"], (1, 2, 0, 1)) ** 2.0).sum()),
    ])
    def test_elementwise_families(self, name, fn):
        def build(tensors):
            return {"root": fn(tensors)}

        x0, y0 = rng_arrays((2, 3, 4), (2, 3, 4), seed=1)
        x1, y1 = rng_arrays((2, 3, 4), (2, 3, 4), seed=2)
        assert_replay_matches_eager(
            build, {"x": x0, "y": y0}, {"x": x1, "y": y1})

    def test_matmul(self):
        def build(tensors):
            return {"root": (tensors["x"] @ tensors["y"]).sum()}

        x0, y0 = rng_arrays((3, 4), (4, 5), seed=3)
        x1, y1 = rng_arrays((3, 4), (4, 5), seed=4)
        assert_replay_matches_eager(
            build, {"x": x0, "y": y0}, {"x": x1, "y": y1})

    @pytest.mark.parametrize("name,fn", [
        ("conv", lambda t, w, b: conv2d(t["x"], w, b, padding=1).sum()),
        ("conv_stride",
         lambda t, w, b: conv2d(t["x"], w, None, stride=2, padding=1).sum()),
        ("maxpool", lambda t, w, b: max_pool2d(t["x"], 2).sum()),
        ("upsample", lambda t, w, b: (upsample2x(t["x"]) ** 2.0).sum()),
    ])
    def test_conv_families(self, name, fn):
        rng = np.random.default_rng(11)
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)

        def build(tensors):
            return {"root": fn(tensors, w, b)}

        (x0,) = rng_arrays((2, 3, 8, 8), seed=5, lo=-1.0, hi=1.0)
        (x1,) = rng_arrays((2, 3, 8, 8), seed=6, lo=-1.0, hi=1.0)
        assert_replay_matches_eager(build, {"x": x0}, {"x": x1})

    def test_nondefault_seed(self):
        def build(tensors):
            return {"root": (tensors["x"] ** 2.0).sum(axis=1)}

        (x0,) = rng_arrays((3, 4), seed=7)
        (x1,) = rng_arrays((3, 4), seed=8)
        seed = np.array([1.0, -2.0, 0.5])
        assert_replay_matches_eager(build, {"x": x0}, {"x": x1}, seed=seed)


class TestArena:
    def _plan(self):
        def build(tensors):
            hidden = F.relu(tensors["x"] * 2.0 - 1.0)
            return {"root": (hidden ** 2.0).sum(), "hidden": hidden}

        (x0,) = rng_arrays((4, 5), seed=9)
        return build, CapturedGraph.trace(
            build, {"x": x0}, grad_inputs=("x",))

    def test_replay_reuses_buffers(self):
        build, plan = self._plan()
        # First replay switches the input gradient onto the arena buffer
        # (the trace-time gradient was handed to the trace caller).
        (x1,) = rng_arrays((4, 5), seed=10)
        plan.replay({"x": x1})
        data_ids = {name: id(t.data) for name, t in plan.outputs.items()}
        grad_id = id(plan.inputs["x"].grad)
        (x2,) = rng_arrays((4, 5), seed=11)
        plan.replay({"x": x2})
        for name, t in plan.outputs.items():
            assert id(t.data) == data_ids[name], name
        assert id(plan.inputs["x"].grad) == grad_id

    def test_results_are_copies(self):
        build, plan = self._plan()
        (x1,) = rng_arrays((4, 5), seed=12)
        plan.replay({"x": x1})
        out = plan.output("hidden")
        grad = plan.grad("x")
        assert out is not plan.outputs["hidden"].data
        assert grad is not plan.inputs["x"].grad
        out[...] = -1.0
        grad[...] = -1.0
        assert not np.array_equal(plan.outputs["hidden"].data, out)

    def test_arena_bytes_positive_and_stable(self):
        _, plan = self._plan()
        assert plan.arena_bytes > 0
        before = plan.arena_bytes
        (x1,) = rng_arrays((4, 5), seed=13)
        plan.replay({"x": x1})
        assert plan.arena_bytes == before

    def test_want_grad_false_skips_backward(self):
        build, plan = self._plan()
        (x1,) = rng_arrays((4, 5), seed=14)
        plan.replay({"x": x1}, want_grad=False)
        assert plan.grad("x") is None
        value, _ = eager_reference(build, {"x": x1})
        assert np.array_equal(plan.outputs["root"].data, value)

    def test_param_grads_skipped_on_replay(self):
        rng = np.random.default_rng(15)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def build(tensors):
            return {"root": ((tensors["x"] * w) ** 2.0).sum()}

        (x0,) = rng_arrays((4, 5), seed=16)
        plan = CapturedGraph.trace(build, {"x": x0}, grad_inputs=("x",))
        (x1,) = rng_arrays((4, 5), seed=17)
        plan.replay({"x": x1})
        # Parameter gradient work is skipped; requires_grad is restored.
        assert w.grad is None
        assert w.requires_grad
        # The input gradient is still bitwise exact.
        _, grad1 = eager_reference(build, {"x": x1})
        assert np.array_equal(plan.grad("x"), grad1)

    def test_trace_computes_no_parameter_gradients(self):
        """The trace call's backward is the plan's sweep: the input
        gradient is the eager one, and no weight-gradient work runs."""
        rng = np.random.default_rng(22)
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)

        def build(tensors):
            return {"root": (conv2d(tensors["x"], w, None, padding=1)
                             ** 2.0).sum()}

        (x0,) = rng_arrays((1, 3, 6, 6), seed=23)
        plan = CapturedGraph.trace(build, {"x": x0}, grad_inputs=("x",))
        assert w.grad is None and w.requires_grad
        _, grad0 = eager_reference(build, {"x": x0})
        assert np.array_equal(plan.grad("x"), grad0)

    def test_live_param_updates_flow_into_replays(self):
        rng = np.random.default_rng(18)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def build(tensors):
            return {"root": (tensors["x"] * w).sum()}

        (x0,) = rng_arrays((3, 3), seed=19)
        plan = CapturedGraph.trace(build, {"x": x0}, grad_inputs=("x",))
        w.data[...] *= 0.5  # in-place optimizer-style update
        plan.replay({"x": x0})
        value, grad = eager_reference(build, {"x": x0})
        assert np.array_equal(plan.outputs["root"].data, value)
        assert np.array_equal(plan.grad("x"), grad)


class TestCaptureMiss:
    def _plan(self):
        def build(tensors):
            return {"root": (tensors["x"] ** 2.0).sum()}

        (x0,) = rng_arrays((3, 4), seed=20)
        return CapturedGraph.trace(build, {"x": x0}, grad_inputs=("x",))

    def test_shape_mismatch(self):
        plan = self._plan()
        with pytest.raises(CaptureMiss, match="shape"):
            plan.replay({"x": np.zeros((4, 4))})

    def test_missing_input(self):
        plan = self._plan()
        with pytest.raises(CaptureMiss, match="missing"):
            plan.replay({"y": np.zeros((3, 4))})

    def test_seed_shape_mismatch(self):
        def build(tensors):
            return {"root": (tensors["x"] ** 2.0).sum(axis=1)}

        (x0,) = rng_arrays((3, 4), seed=21)
        plan = CapturedGraph.trace(build, {"x": x0}, grad_inputs=("x",))
        with pytest.raises(CaptureMiss, match="seed"):
            plan.replay({"x": x0}, seed=np.ones(4))


class TestBackwardOnlyReplay:
    """A gradient call on the inputs of the arena's last completed forward
    runs only the backward sweep — and only when nothing the forward read
    has changed since."""

    SHAPES = ((2, 3, 6, 6), (2, 2, 6, 6))

    def _plan(self):
        rng = np.random.default_rng(30)
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)

        def build(tensors):
            hidden = F.relu(conv2d(tensors["x"], w, None, padding=1))
            return {"root": (hidden * tensors["y"]).sum()}

        x0, y0 = rng_arrays(*self.SHAPES, seed=31, lo=-1.0)
        plan = CapturedGraph.trace(build, {"x": x0, "y": y0},
                                   grad_inputs=("x",))
        return build, plan, w

    def _values(self, seed):
        x, y = rng_arrays(*self.SHAPES, seed=seed, lo=-1.0)
        return {"x": x, "y": y}

    @staticmethod
    def assert_matches_eager(build, plan, values):
        value, grad = eager_reference(build, values)
        assert np.array_equal(plan.outputs["root"].data, value)
        assert np.array_equal(plan.grad("x"), grad)

    def test_value_then_grad_runs_backward_only(self):
        build, plan, _ = self._plan()
        values = self._values(32)
        assert plan.replay(values, want_grad=False) is False
        runs = []
        for node in plan._forward_nodes:
            node._replay = (lambda f: lambda: runs.append(f()))(node._replay)
        assert plan.replay(values) is True
        assert runs == []
        self.assert_matches_eager(build, plan, values)

    def test_trace_counts_as_completed_forward(self):
        build, plan, _ = self._plan()
        values = {name: t.data.copy() for name, t in plan.inputs.items()}
        assert plan.replay(values) is True
        self.assert_matches_eager(build, plan, values)

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_one_ulp_input_change_forces_forward(self, name):
        build, plan, _ = self._plan()
        values = self._values(33)
        plan.replay(values, want_grad=False)
        bumped = {k: v.copy() for k, v in values.items()}
        bumped[name].flat[5] = np.nextafter(bumped[name].flat[5], np.inf)
        assert plan.replay(bumped) is False
        self.assert_matches_eager(build, plan, bumped)

    def test_in_place_leaf_write_forces_forward(self):
        build, plan, w = self._plan()
        values = self._values(34)
        plan.replay(values, want_grad=False)
        w.data[0, 0, 1, 1] += 0.5
        assert plan.replay(values) is False
        self.assert_matches_eager(build, plan, values)

    def test_miss_on_later_input_copies_nothing(self):
        build, plan, _ = self._plan()
        first, second = self._values(35), self._values(36)
        plan.replay(first, want_grad=False)
        with pytest.raises(CaptureMiss):
            plan.replay({"x": second["x"], "y": np.zeros((1, 2, 6, 6))})
        # Validation precedes every copy: the arena still holds `first`.
        assert np.array_equal(plan.inputs["x"].data, first["x"])
        assert plan.replay(second) is False
        self.assert_matches_eager(build, plan, second)

    def test_exception_in_forward_closure_voids_arena(self):
        build, plan, _ = self._plan()
        values = self._values(37)
        node = plan._forward_nodes[len(plan._forward_nodes) // 2]
        original = node._replay

        def fail():
            raise RuntimeError("closure failed")

        node._replay = fail
        with pytest.raises(RuntimeError, match="closure failed"):
            plan.replay(values, want_grad=False)
        node._replay = original
        # The inputs were copied before the failure, but the forward never
        # completed: the gradient call must re-run it.
        assert plan.replay(values) is False
        self.assert_matches_eager(build, plan, values)


class TestGraphTeardown:
    """backward() drops the graph so results no longer pin intermediates."""

    def test_backward_clears_history(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        out = (x * 2.0 + 1.0).sum()
        out.backward()
        assert out._parents == ()
        assert out._backward is None

    def test_retain_graph_keeps_history(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        out = (x * 2.0).sum()
        out.backward(retain_graph=True)
        assert out._parents != ()
        assert out._backward is not None
        # A second sweep over the retained graph still works (gradients
        # accumulate, as in eager autograd generally).
        out.backward(retain_graph=True)
        assert x.grad is not None and x.grad.shape == (3, 3)

    def test_result_does_not_pin_intermediates(self):
        x = Tensor(np.ones((64, 64)), requires_grad=True)
        hidden = F.relu(x * 3.0 - 1.0)
        out = (hidden ** 2.0).sum()
        ref = weakref.ref(hidden)
        out.backward()
        del hidden
        gc.collect()
        # Without teardown, `out._parents` would keep `hidden` alive for
        # as long as the caller holds the scalar result.
        assert ref() is None
        assert out.item() is not None  # result itself still usable

    def test_intermediates_pinned_without_backward_teardown(self):
        # Control: retain_graph=True preserves the old pinning behaviour,
        # proving the teardown (not scoping luck) is what frees the graph.
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        hidden = F.relu(x * 3.0)
        out = (hidden ** 2.0).sum()
        ref = weakref.ref(hidden)
        out.backward(retain_graph=True)
        del hidden
        gc.collect()
        assert ref() is not None


def unet_plans(param_grads, batches=(3, 2)):
    """Plans of one depth-2 UNet on a shared pool: training steps
    (``param_grads``) or inference passes with an input gradient."""
    unet = UNet(2, 1, base_channels=4, depth=2, rng=0)
    if not param_grads:
        unet.eval()

    def build(tensors):
        pred = unet(tensors["x"])
        return {"root": ((pred - tensors["y"]) ** 2.0).sum(), "pred": pred}

    pool = ScratchPool()
    plans = []
    for k, batch in enumerate(batches):
        x, y = rng_arrays((batch, 2, 7, 9), (batch, 1, 7, 9), seed=40 + k,
                          lo=-1.0)
        plans.append(CapturedGraph.trace(
            build, {"x": x, "y": y}, root="root", pool=pool,
            grad_inputs=() if param_grads else ("x",),
            param_grads=param_grads))
    return unet, build, plans


def sweep_intervals(plan):
    """(first write, last read) of every non-leaf node's gradient, by
    sweep step, computed from the graph alone."""
    sweep = plan._btopo[::-1]
    step = {id(n): i for i, n in enumerate(sweep)}
    intervals = {id(sweep[0]): [-1, 0]}
    for i, node in enumerate(sweep):
        for parent in node._parents:
            if id(parent) in step and id(parent) not in intervals:
                intervals[id(parent)] = [i, step[id(parent)]]
    return [(n, intervals[id(n)]) for n in sweep if n._parents]


class TestGradientSlots:
    @pytest.mark.parametrize("param_grads", [False, True])
    def test_holders_of_one_slot_are_never_live_together(self, param_grads):
        _, _, plans = unet_plans(param_grads)
        for plan in plans:
            holders = sweep_intervals(plan)
            buffers = {id(n._grad_buf) for n, _ in holders}
            assert len(buffers) == len(holders)  # one view per holder
            for i, (a, (a0, a1)) in enumerate(holders):
                for b, (b0, b1) in holders[i + 1:]:
                    if np.shares_memory(a._grad_buf, b._grad_buf):
                        assert a1 < b0 or b1 < a0, (a, b)

    def test_no_parent_reuses_its_childs_slot(self):
        _, _, (plan, _) = unet_plans(param_grads=True)
        sweep = plan._btopo[::-1]
        for node in sweep:
            for parent in node._parents:
                if parent._parents and parent in sweep:
                    assert not np.shares_memory(node._grad_buf,
                                                parent._grad_buf)

    def test_slots_are_shared(self):
        _, _, plans = unet_plans(param_grads=True)
        for plan in plans:
            holders = sweep_intervals(plan)
            assert len(plan._slot_sizes) < len(holders) // 4

    def test_plans_of_one_pool_share_slots(self):
        _, _, (big, small) = unet_plans(param_grads=True)
        assert any(np.shares_memory(a._grad_buf, b._grad_buf)
                   for a, _ in sweep_intervals(big)
                   for b, _ in sweep_intervals(small))

    def test_two_parents_of_one_child(self):
        """A child writes both parents in the step that reads its own
        gradient; neither parent may take the child's slot."""
        def build(tensors):
            u = tensors["x"] * 2.0
            v = tensors["x"] + 1.0
            w = u * v
            return {"root": (w * w).sum()}

        (x0,) = rng_arrays((3, 4), seed=45)
        (x1,) = rng_arrays((3, 4), seed=46)
        assert_replay_matches_eager(build, {"x": x0}, {"x": x1})


def closure_arrays(fn, seen):
    """Arrays (and pooled scratch views) a closure keeps, recursively."""
    if fn is None or id(fn) in seen:
        return
    seen.add(id(fn))
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Scratch):
            yield from value.views.values()
        elif getattr(value, "__closure__", None):
            yield from closure_arrays(value, seen)


def owner(array):
    """The array that owns ``array``'s memory (through stride-trick
    wrappers too)."""
    while getattr(array, "base", None) is not None:
        array = array.base
    return array


class TestArenaAccounting:
    @pytest.mark.parametrize("param_grads", [False, True])
    def test_each_buffer_counted_once(self, param_grads):
        unet, build, plans = unet_plans(param_grads)
        for k, plan in enumerate(plans):
            x, y = rng_arrays(plan.inputs["x"].shape, plan.inputs["y"].shape,
                              seed=50 + k)
            plan.replay({"x": x, "y": y})  # warm every call site
            held = plan.buffers()
            assert plan.arena_bytes == sum(a.nbytes for a in held.values())
            arrays = list(held.values())
            for i, a in enumerate(arrays):
                assert a.base is None
                assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            # Everything the graph and its closures keep is counted,
            # except the parameters, which the module owns.
            params = {id(p.data) for p in unet.parameters()}
            kept = [n.data for n in plan._nodes] + [
                n._grad_buf for n in plan._btopo if n._grad_buf is not None]
            seen = set()
            for node in plan._nodes:
                kept += closure_arrays(node._replay, seen)
                kept += closure_arrays(node._backward, seen)
            buffers = {id(p.data) for p in unet.parameters()} | {
                id(b) for _, b in unet.named_buffers()}
            for array in kept:
                base = owner(array)
                assert id(base) in held or id(base) in buffers, array.shape
            assert not params & set(held)
        together = arena_bytes(plans)
        union = {}
        for plan in plans:
            union.update(plan.buffers())
        assert together == sum(a.nbytes for a in union.values())
        # The plans share their owner's pool, so that is counted once.
        assert together < sum(plan.arena_bytes for plan in plans)
