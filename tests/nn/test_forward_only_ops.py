"""The UNet's cheap ops, pinned bit for bit against the formulas they
replaced, eager and captured.

Max pooling folds ``np.maximum`` over strided views and finds each
window's pick again in the backward; upsampling is four strided copies
with an explicit gradient sum; ReLU and the hinges build their masks in
the backward; convs pad channels-last.  Each must give exactly the bits
of the formulation it replaced — the window copy with ``argmax`` and
``np.add.at``, ``repeat`` and a ``sum`` over the window axes, masks
taken in the forward — and a forward-only replay must build no state
that only a backward reads.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import UNet
from repro.nn import functional as F
from repro.nn import modules
from repro.nn.capture import CapturedGraph
from repro.nn.conv import conv2d, max_pool2d, upsample2x
from repro.nn.dispatch import ScratchPool
from repro.nn.tensor import Tensor
from repro.surrogate import NUM_FEATURE_CHANNELS

#: Roles of pooled scratch that only a backward takes.
BACKWARD_ROLES = {"pool_arg", "pool_miss", "pool_idx", "maxpool_gx",
                  "relu_mask", "relu_gx", "up_gx", "up_pair", "gfull", "fw"}


def bits(a):
    """Exact bit pattern (NaN payloads and the sign of zero included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def eager(build, x, seed):
    """One eager forward and backward: (output, input gradient)."""
    xt = Tensor(x, requires_grad=True)
    out = build(xt)
    out.backward(seed)
    return out.data.copy(), xt.grad.copy()


def captured(build, calls):
    """A plan traced on the first ``(x, seed)`` call and replayed on the
    rest: (output, input gradient) of every call."""
    def graph(tensors):
        return {"root": build(tensors["x"])}

    (x0, seed0), *rest = calls
    plan = CapturedGraph.trace(graph, {"x": x0}, grad_inputs=("x",),
                               seed=seed0)
    results = [(plan.output("root"), plan.grad("x"))]
    for x, seed in rest:
        plan.replay({"x": x}, seed=seed)
        results.append((plan.output("root"), plan.grad("x")))
    return results


def assert_matches(build, reference, calls):
    """Eager and captured (output, gradient) equal ``reference(x, seed)``
    bit for bit on every call."""
    expected = [reference(x, seed) for x, seed in calls]
    for (x, seed), (value, grad) in zip(calls, expected):
        got_value, got_grad = eager(build, x, seed)
        assert bits(got_value) == bits(value)
        assert bits(got_grad) == bits(grad)
    for (got_value, got_grad), (value, grad) in zip(captured(build, calls),
                                                     expected):
        assert bits(got_value) == bits(value)
        assert bits(got_grad) == bits(grad)


# ----------------------------------------------------------------------
# max pooling
# ----------------------------------------------------------------------
def pool_reference(kernel, stride):
    """The window copy + argmax forward and the ``np.add.at`` scatter."""
    def reference(x, grad):
        B, C = x.shape[:2]
        windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[
            :, :, ::stride, ::stride]
        Ho, Wo = windows.shape[2:4]
        flat = windows.reshape(B, C, Ho, Wo, kernel * kernel)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        gx = np.zeros_like(x)
        bi, ci, hi, wi = np.ogrid[:B, :C, :Ho, :Wo]
        np.add.at(gx, (bi, ci, hi * stride + arg // kernel,
                       wi * stride + arg % kernel), grad)
        return out, gx
    return reference


def pool_calls(shape, kernel, stride, values, seed=0, count=3):
    """``count`` (map, upstream gradient) pairs; ``values(rng, shape)``
    draws the maps.  Some gradient entries are -0.0, which a scatter-add
    into zeros turns into +0.0."""
    rng = np.random.default_rng(seed)
    B, C, H, W = shape
    out_shape = (B, C, (H - kernel) // stride + 1, (W - kernel) // stride + 1)
    calls = []
    for _ in range(count):
        grad = rng.standard_normal(out_shape)
        grad[rng.random(out_shape) < 0.2] = -0.0
        calls.append((values(rng, shape), grad))
    return calls


def normal(rng, shape):
    return rng.standard_normal(shape)


def ties(rng, shape):
    """Few distinct values, so most windows hold a tied maximum."""
    return rng.integers(-1, 2, size=shape).astype(float)


def signed_zeros(rng, shape):
    """Only +0.0 and -0.0: every window is a tie of the two zeros."""
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


def with_nans(rng, shape):
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.15] = np.nan
    return x


class TestMaxPool:
    @pytest.mark.parametrize("values", [normal, ties, signed_zeros, with_nans])
    @pytest.mark.parametrize("shape", [(3, 8, 12, 12), (2, 3, 7, 9),
                                       (12, 16, 6, 6), (1, 1, 2, 3)])
    def test_matches_argmax_and_add_at(self, shape, values):
        assert_matches(lambda t: max_pool2d(t, 2), pool_reference(2, 2),
                       pool_calls(shape, 2, 2, values))

    @pytest.mark.parametrize("kernel,stride", [(3, 3), (2, 3), (3, 2), (2, 1)])
    def test_other_windows(self, kernel, stride):
        assert_matches(lambda t: max_pool2d(t, kernel, stride),
                       pool_reference(kernel, stride),
                       pool_calls((2, 3, 9, 8), kernel, stride, ties))

    def test_signed_zero_tie_takes_the_first(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2)
        out = max_pool2d(Tensor(x), 2).data
        assert out[0, 0, 0, 0] == 0.0 and np.signbit(out[0, 0, 0, 0])
        out = max_pool2d(Tensor(-x), 2).data
        assert not np.signbit(out[0, 0, 0, 0])

    def test_nan_routes_to_the_first_nan(self):
        x = Tensor(np.array([1.0, np.nan, 5.0, np.nan]).reshape(1, 1, 2, 2),
                   requires_grad=True)
        max_pool2d(x, 2).backward(np.array([[[[3.0]]]]))
        assert bits(x.grad) == bits(
            np.array([0.0, 3.0, 0.0, 0.0]).reshape(1, 1, 2, 2))

    def test_one_window_per_map(self):
        """A 2x2 map (every layout of at most 4x4 at depth 2) pools to one
        window; replays keep working call after call."""
        calls = pool_calls((3, 4, 2, 2), 2, 2, normal, count=5)
        assert_matches(lambda t: max_pool2d(t, 2), pool_reference(2, 2), calls)


# ----------------------------------------------------------------------
# upsampling
# ----------------------------------------------------------------------
def upsample_reference(x, grad):
    B, C, H, W = x.shape
    return (x.repeat(2, axis=2).repeat(2, axis=3),
            grad.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5)))


def mixed_magnitudes(rng, shape):
    """Gradients whose sum depends on the order it is taken in."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)


class TestUpsample:
    @pytest.mark.parametrize("shape", [(3, 32, 3, 3), (12, 16, 6, 6),
                                       (2, 3, 5, 1), (2, 3, 1, 5), (1, 2, 1, 1),
                                       (4, 2, 4, 7)])
    def test_matches_repeat_and_window_sum(self, shape):
        rng = np.random.default_rng(sum(shape))
        B, C, H, W = shape
        calls = [(rng.standard_normal(shape),
                  mixed_magnitudes(rng, (B, C, 2 * H, 2 * W)))
                 for _ in range(3)]
        assert_matches(upsample2x, upsample_reference, calls)

    @pytest.mark.parametrize("W", [1, 3])
    def test_signed_zero_sums(self, W):
        """Four -0.0 sum to +0.0, as numpy's reduction starts from +0.0."""
        rng = np.random.default_rng(W)
        x = rng.standard_normal((1, 2, 3, W))
        grad = np.where(rng.random((1, 2, 6, 2 * W)) < 0.7, -0.0, 0.0)
        grad[0, 0] = -0.0
        assert_matches(upsample2x, upsample_reference, [(x, grad)])


# ----------------------------------------------------------------------
# masks built by the backward
# ----------------------------------------------------------------------
def masked_reference(pick, take, other):
    """The op with its mask taken in the forward, as before."""
    def reference(x, grad):
        return pick(x, other), grad * take(x, other)
    return reference


class TestMasks:
    @pytest.mark.parametrize("op,pick,take,other", [
        (lambda t: F.relu(t), np.maximum, np.greater, 0.0),
        (lambda t: F.maximum(t, 0.0), np.maximum, np.greater_equal, 0.0),
        (lambda t: F.minimum(t, 1.0), np.minimum, np.less_equal, 1.0),
        (lambda t: F.maximum(t, Tensor(np.linspace(-1, 1, 5))),
         np.maximum, np.greater_equal, np.linspace(-1, 1, 5)),
    ], ids=["relu", "maximum", "minimum", "maximum_broadcast"])
    def test_gradient_equals_forward_mask(self, op, pick, take, other):
        rng = np.random.default_rng(3)
        # Values on a coarse lattice hit the tie (x == other) often.
        calls = [(rng.integers(-4, 5, (3, 4, 5)) * 0.5,
                  rng.standard_normal((3, 4, 5))) for _ in range(3)]
        assert_matches(op, masked_reference(pick, take, other), calls)

    def test_other_side_of_the_hinge(self):
        """The operand that is not ``x`` gets ``grad * ~take_x``."""
        rng = np.random.default_rng(4)
        x0, y0 = rng.integers(-2, 3, (2, 2, 6)) * 1.0
        g = rng.standard_normal((2, 6))
        for op, take in ((F.maximum, np.greater_equal),
                         (F.minimum, np.less_equal)):
            x, y = Tensor(x0, requires_grad=True), Tensor(y0, requires_grad=True)
            op(x, y).backward(g)
            mask = take(x0, y0)
            assert bits(x.grad) == bits(g * mask)
            assert bits(y.grad) == bits(g * ~mask)


# ----------------------------------------------------------------------
# convolutions at the UNet's shapes
# ----------------------------------------------------------------------
def unet_conv_shapes(grid, rows):
    """(input shape, weight shape, padding) of every conv the default
    UNet runs on a ``rows``-row stack over ``grid``."""
    shapes = []
    real = modules.conv2d

    def recording(x, weight, bias=None, stride=1, padding=0):
        shapes.append((x.shape, weight.shape, padding))
        return real(x, weight, bias, stride=stride, padding=padding)

    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=8, depth=2, rng=0).eval()
    modules.conv2d = recording
    try:
        unet(Tensor(np.zeros((rows, NUM_FEATURE_CHANNELS, *grid))))
    finally:
        modules.conv2d = real
    return sorted(set(shapes))


CONV_CASES = [(grid, shape)
              for grid in [(13, 7), (1, 9)]
              for k in range(1, 5)
              for shape in unet_conv_shapes(grid, 3 * k)]


class TestConvPlans:
    @pytest.mark.parametrize("grid,shape", CONV_CASES,
                             ids=[f"{g[0]}x{g[1]}-{s[0]}-{s[1]}"
                                  for g, s in CONV_CASES])
    def test_inference_and_training_plans_match_eager(self, grid, shape):
        x_shape, w_shape, padding = shape
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        weight = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        bias = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)

        def graph(tensors):
            return {"root": conv2d(tensors["x"], weight, bias, padding=padding)}

        xs = [rng.standard_normal(x_shape) for _ in range(3)]
        out_shape = graph({"x": Tensor(xs[0])})["root"].shape
        seeds = [rng.standard_normal(out_shape) for _ in range(3)]
        expected = []
        for x, seed in zip(xs, seeds):
            weight.zero_grad()
            bias.zero_grad()
            value, grad = eager(lambda t: graph({"x": t})["root"], x, seed)
            expected.append((value, grad, weight.grad.copy(), bias.grad.copy()))

        pool = ScratchPool()
        inference = CapturedGraph.trace(graph, {"x": xs[0]}, grad_inputs=("x",),
                                        seed=seeds[0], pool=pool)
        training = CapturedGraph.trace(graph, {"x": xs[0]}, grad_inputs=("x",),
                                       seed=seeds[0], pool=pool,
                                       param_grads=True)
        for k, (x, seed) in enumerate(zip(xs, seeds)):
            for plan in (inference, training):
                if k:
                    plan.replay({"x": x}, seed=seed)
                value, grad, gw, gb = expected[k]
                assert bits(plan.output("root")) == bits(value)
                assert bits(plan.grad("x")) == bits(grad)
                if plan is training:
                    assert bits(weight.grad) == bits(gw)
                    assert bits(bias.grad) == bits(gb)


# ----------------------------------------------------------------------
# what a forward-only replay builds
# ----------------------------------------------------------------------
def unet_graph(unet):
    def graph(tensors):
        pred = unet(tensors["x"])
        return {"root": (pred * pred).sum()}
    return graph


class TestForwardOnlyState:
    def setup_method(self):
        self.unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=8, depth=2,
                         rng=0).eval()
        rng = np.random.default_rng(7)
        self.xs = [rng.standard_normal((6, NUM_FEATURE_CHANNELS, 13, 7))
                   for _ in range(3)]

    def test_inference_plan_keeps_no_backward_state(self):
        pool = ScratchPool()
        plan = CapturedGraph.trace(unet_graph(self.unet), {"x": self.xs[0]},
                                   pool=pool)
        for x in self.xs[1:]:
            plan.replay({"x": x}, want_grad=False)
        # Only the batch-norm per-channel statistics are kept: no padded
        # conv input, no pooling window copy, no mask.
        assert plan._recorder.retained
        for array in plan._recorder.retained:
            assert array.shape[0] == 1 and array.shape[2:] == (1, 1)
        assert not {role for role, _ in pool._flat} & BACKWARD_ROLES
        # The convs of one shape share one pooled padded input.
        pads = [key for key in pool._maps if key[0] == ("pad", 1)]
        assert 0 < len(pads) < 12

    def test_argmax_scratch_is_taken_by_a_backward(self):
        pool = ScratchPool()
        CapturedGraph.trace(unet_graph(self.unet), {"x": self.xs[0]},
                            pool=pool)
        assert ("pool_arg", np.dtype(np.intp)) not in pool._flat
        CapturedGraph.trace(unet_graph(self.unet), {"x": self.xs[1]},
                            grad_inputs=("x",), pool=pool)
        assert ("pool_arg", np.dtype(np.intp)) in pool._flat

    def test_gradient_plan_retains_nothing_more(self):
        """An inference plan with an input gradient runs its backward on
        pooled scratch and keeps what a forward-only plan keeps."""
        plans = [CapturedGraph.trace(unet_graph(self.unet), {"x": x},
                                     grad_inputs=grads, pool=ScratchPool())
                 for x, grads in ((self.xs[0], ()), (self.xs[0], ("x",)))]
        assert ([a.shape for a in plans[0]._recorder.retained]
                == [a.shape for a in plans[1]._recorder.retained])

    def test_training_plan_pads_into_the_pool(self):
        """A parameter-gradient plan keeps no padded input either: its
        weight gradients pad again, into the maps its forward used."""
        pool = ScratchPool()
        plan = CapturedGraph.trace(unet_graph(self.unet.train()),
                                   {"x": self.xs[0]}, param_grads=True,
                                   pool=pool)
        assert not [a for a in plan._recorder.retained
                    if a.ndim == 4 and a.shape[0] == 6]
        # Channels-last (B, H + 2, W + 2, C) maps, keyed by their
        # per-image shape, at the three levels of the 16x8 map the 13x7
        # input is padded to.
        pads = [buf.shape for (interior, _, _), buf in pool._maps.items()
                if interior == ("pad", 1)]
        assert {shape[1:3] for shape in pads} == {(18, 10), (10, 6), (6, 4)}
        assert all(shape[0] == 6 for shape in pads)
