"""Integration tests: the nn substrate learns real spatial structure."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BatchNorm2d,
    Conv2d,
    ReLU,
    Sequential,
    Tensor,
    mse_loss,
)


def make_edge_task(n=24, size=8, seed=0):
    """Inputs with a vertical edge at a random column; target = the
    edge-response map of a fixed Sobel-like filter (purely local, so a
    single conv layer can solve it exactly)."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, 1, size, size))
    for k in range(n):
        col = rng.integers(1, size - 1)
        X[k, 0, :, col:] = 1.0
    kernel = np.array([[-1.0, 0.0, 1.0]] * 3) / 3.0
    from repro.nn import conv2d
    Y = conv2d(Tensor(X), Tensor(kernel[None, None]), padding=1).data
    return X, Y


class TestLearnsConvolution:
    def test_single_conv_recovers_filter(self):
        X, Y = make_edge_task()
        layer = Conv2d(1, 1, 3, padding=1, rng=1)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(X)), Tensor(Y))
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3

    def test_two_layer_net_fits_nonlinear_map(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(16, 1, 6, 6))
        Y = np.maximum(X, 0.0) * 2.0 + 1.0  # relu-shaped target
        net = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=3), ReLU(),
            Conv2d(4, 1, 1, rng=3),
        )
        opt = Adam(net.parameters(), lr=0.02)
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = mse_loss(net(Tensor(X)), Tensor(Y))
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05 * first


class TestBatchNormBehaviour:
    def test_bn_net_stable_under_input_shift(self):
        """BatchNorm absorbs a global input offset in train mode.

        No padding: zero-padding borders would break the uniform shift."""
        net = Sequential(Conv2d(1, 2, 3, padding=0, rng=0), BatchNorm2d(2))
        x = np.random.default_rng(0).normal(size=(4, 1, 6, 6))
        out1 = net(Tensor(x)).data
        out2 = net(Tensor(x + 100.0)).data
        np.testing.assert_allclose(out1, out2, atol=1e-6)

    def test_eval_mode_is_deterministic_per_sample(self):
        net = Sequential(Conv2d(1, 2, 3, padding=1, rng=0), BatchNorm2d(2))
        rng = np.random.default_rng(1)
        for _ in range(20):
            net(Tensor(rng.normal(size=(4, 1, 6, 6))))
        net.eval()
        x = rng.normal(size=(1, 1, 6, 6))
        single = net(Tensor(x)).data
        batched = net(Tensor(np.concatenate([x, rng.normal(size=(3, 1, 6, 6))])))
        np.testing.assert_allclose(batched.data[:1], single, rtol=1e-12)


class TestOptimizerRobustness:
    @pytest.mark.parametrize("opt_cls,kwargs", [
        (Adam, {"lr": 0.05}),
    ])
    def test_both_optimizers_solve_least_squares(self, opt_cls, kwargs):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 4))
        x_true = rng.normal(size=(4, 1))
        b = A @ x_true
        x = Tensor(np.zeros((4, 1)), requires_grad=True)
        opt = opt_cls([x], **kwargs)
        for _ in range(500):
            opt.zero_grad()
            residual = Tensor(A) @ x - Tensor(b)
            (residual * residual).mean().backward()
            opt.step()
        np.testing.assert_allclose(x.data, x_true, atol=1e-2)
