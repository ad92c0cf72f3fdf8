"""Tests for the Module system, layers and checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
    load_module,
    save_module,
)
from repro.nn.capture import CapturedGraph


def tiny_net(rng=0):
    return Sequential(
        Conv2d(1, 2, 3, padding=1, rng=rng),
        BatchNorm2d(2),
        ReLU(),
        Conv2d(2, 1, 1, rng=rng),
    )


class TestModuleTraversal:
    def test_named_parameters(self):
        net = tiny_net()
        names = [n for n, _ in net.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.0.bias" in names
        assert "layers.1.gamma" in names
        assert "layers.3.weight" in names

    def test_parameters_count(self):
        conv = Conv2d(3, 4, 3)
        assert conv.num_parameters() == 4 * 3 * 3 * 3 + 4

    def test_no_bias(self):
        conv = Conv2d(1, 1, 3, bias=False)
        assert len(conv.parameters()) == 1

    def test_zero_grad(self):
        net = tiny_net()
        x = Tensor(np.ones((1, 1, 4, 4)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_train_eval_recursive(self):
        net = tiny_net()
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward()


class TestStateDict:
    def test_roundtrip(self):
        a = tiny_net(rng=1)
        b = tiny_net(rng=2)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 4, 4)))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_buffers_included(self):
        net = tiny_net()
        state = net.state_dict()
        assert "buffer:layers.1.running_mean" in state

    def test_mismatch_rejected(self):
        net = tiny_net()
        state = net.state_dict()
        state.pop("layers.0.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        net = tiny_net()
        state = net.state_dict()
        state["layers.0.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_save_load_file(self, tmp_path):
        a = tiny_net(rng=3)
        path = tmp_path / "net.npz"
        save_module(a, path)
        b = tiny_net(rng=4)
        load_module(b, path)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 4, 4)))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x).data, b(x).data)


class TestBatchNorm:
    def test_normalises_in_train_mode(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).normal(5.0, 3.0, size=(4, 3, 8, 8)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-10
        assert out.data.std() == pytest.approx(1.0, rel=1e-2)

    def test_running_stats_update(self):
        bn = BatchNorm2d(1, momentum=0.5)
        x = Tensor(np.full((2, 1, 4, 4), 10.0))
        bn(x)
        assert bn.running_mean[0] == pytest.approx(5.0)  # 0.5*0 + 0.5*10

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1)
        for _ in range(100):
            bn(Tensor(np.random.default_rng(0).normal(2.0, 1.0, size=(8, 1, 4, 4))))
        bn.eval()
        x = Tensor(np.full((1, 1, 2, 2), 2.0))
        out = bn(x)
        assert abs(out.data.mean()) < 0.2

    def test_gradient_flows(self):
        bn = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 2, 4, 4)),
                   requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None

    def test_non_4d_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm2d(2)(Tensor(np.ones((2, 2))))


def trained_norm(channels=3, seed=0):
    """A norm with non-trivial running statistics, gain and shift."""
    rng = np.random.default_rng(seed)
    bn = BatchNorm2d(channels, momentum=0.3)
    for _ in range(3):
        bn(Tensor(rng.normal(2.0, 1.5, size=(4, channels, 5, 5))))
    bn.gamma.data[...] = rng.normal(1.0, 0.5, size=channels)
    bn.beta.data[...] = rng.normal(0.0, 0.5, size=channels)
    return bn.eval()


def chain_norm(bn, x, mean, var):
    """Batch norm as the explicit ``Tensor`` chain."""
    return ((x - mean) / (var + bn.eps) ** 0.5 * bn.gamma.reshape(1, -1, 1, 1)
            + bn.beta.reshape(1, -1, 1, 1))


def running_chain(bn, x):
    return chain_norm(bn, x, Tensor(bn.running_mean.reshape(1, -1, 1, 1)),
                      Tensor(bn.running_var.reshape(1, -1, 1, 1)))


def norm_results(forward, bn, x, seed):
    """Output and input/gain/shift gradients of one forward+backward."""
    bn.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = forward(xt)
    out.backward(seed)
    return (out.data.copy(), xt.grad.copy(), bn.gamma.grad.copy(),
            bn.beta.grad.copy())


class TestBatchNormEvalNode:
    """Eval mode is one graph node, bitwise the explicit chain."""

    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 3, 1, 1),
                                       (4, 3, 1, 6)])
    def test_eager_matches_chain(self, shape):
        bn = trained_norm()
        rng = np.random.default_rng(1)
        x, seed = rng.normal(size=shape), rng.normal(size=shape)
        fused = norm_results(bn, bn, x, seed)
        chain = norm_results(lambda t: running_chain(bn, t), bn, x, seed)
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)

    def test_eval_is_one_node(self):
        bn = trained_norm()
        x = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
        out = bn(x)
        assert out._parents[0] is x
        assert bn.gamma in out._parents and bn.beta in out._parents

    @pytest.mark.parametrize("param_grads", [False, True])
    def test_captured_matches_chain(self, param_grads):
        bn = trained_norm()
        rng = np.random.default_rng(2)
        shape = (2, 3, 4, 6)
        x0, x1, seed = (rng.normal(size=shape) for _ in range(3))
        plan = CapturedGraph.trace(lambda t: {"root": bn(t["x"])}, {"x": x0},
                                   grad_inputs=("x",), seed=seed,
                                   param_grads=param_grads)
        for x in (x0, x1):
            bn.zero_grad()
            plan.replay({"x": x}, seed=seed)
            out, gx, gg, gb = norm_results(lambda t: running_chain(bn, t),
                                           bn, x, seed)
            assert np.array_equal(plan.outputs["root"].data, out)
            assert np.array_equal(plan.grad("x"), gx)
        if param_grads:
            bn.zero_grad()
            plan.replay({"x": x1}, seed=seed)
            assert np.array_equal(bn.gamma.grad, gg)
            assert np.array_equal(bn.beta.grad, gb)

    def test_replay_reads_running_statistics_live(self):
        bn = trained_norm()
        rng = np.random.default_rng(3)
        x, seed = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=(2, 3, 3, 3))
        plan = CapturedGraph.trace(lambda t: {"root": bn(t["x"])}, {"x": x},
                                   grad_inputs=("x",), seed=seed)
        bn.running_mean[...] += 0.25
        bn.running_var[...] *= 1.5
        # Same input, changed leaves: the snapshot forces a forward.
        assert plan.replay({"x": x}, seed=seed) is False
        out, gx, _, _ = norm_results(lambda t: running_chain(bn, t), bn, x,
                                     seed)
        assert np.array_equal(plan.outputs["root"].data, out)
        assert np.array_equal(plan.grad("x"), gx)

    def test_training_step_is_the_chain(self):
        bn = trained_norm().train()
        twin = trained_norm().train()
        rng = np.random.default_rng(4)
        x, seed = rng.normal(size=(3, 3, 4, 4)), rng.normal(size=(3, 3, 4, 4))
        step = norm_results(bn, bn, x, seed)

        def batch_chain(t):
            mean = t.mean(axis=(0, 2, 3), keepdims=True)
            var = t.var(axis=(0, 2, 3), keepdims=True)
            m = twin.momentum
            twin.running_mean[...] = ((1 - m) * twin.running_mean
                                      + m * mean.data.ravel())
            twin.running_var[...] = ((1 - m) * twin.running_var
                                     + m * var.data.ravel())
            return chain_norm(twin, t, mean, var)

        chain = norm_results(batch_chain, twin, x, seed)
        for a, b in zip(step, chain):
            assert np.array_equal(a, b)
        assert np.array_equal(bn.running_mean, twin.running_mean)
        assert np.array_equal(bn.running_var, twin.running_var)


class TestSequentialMisc:
    def test_len_getitem(self):
        net = tiny_net()
        assert len(net) == 4
        assert isinstance(net[2], ReLU)
