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


class TestSequentialMisc:
    def test_len_getitem(self):
        net = tiny_net()
        assert len(net) == 4
        assert isinstance(net[2], ReLU)
