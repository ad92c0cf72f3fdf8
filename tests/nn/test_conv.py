"""Tests for convolution, pooling and upsampling (values and gradients)."""

import numpy as np
import pytest

from repro.nn import Tensor, conv2d, max_pool2d, upsample2x

from .gradcheck import check_grad


def brute_conv2d(x, w, b=None, stride=1, padding=0):
    """Reference implementation with explicit loops."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, O, Ho, Wo))
    for bb in range(B):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    patch = xp[bb, :, i * stride : i * stride + kh,
                               j * stride : j * stride + kw]
                    out[bb, o, i, j] = (patch * w[o]).sum()
            if b is not None:
                out[bb, o] += b[o]
    return out


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_brute_force(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, brute_conv2d(x, w, b, stride, padding),
                                   rtol=1e-10, atol=1e-10)

    def test_identity_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))

    def test_non_4d_rejected(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 1, 3, 3))))


class TestConv2dGrad:
    def test_grad_x(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        check_grad(lambda t: conv2d(t, w, padding=1),
                   rng.normal(size=(1, 3, 5, 5)), rtol=1e-3, atol=1e-5)

    def test_grad_x_strided(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        check_grad(lambda t: conv2d(t, w, stride=2, padding=1),
                   rng.normal(size=(1, 1, 6, 6)), rtol=1e-3, atol=1e-5)

    def test_grad_w(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        check_grad(lambda t: conv2d(x, t, padding=1),
                   rng.normal(size=(3, 2, 3, 3)), rtol=1e-3, atol=1e-5)

    def test_grad_bias(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        check_grad(lambda t: conv2d(x, w, t, padding=1), rng.normal(size=3))


class TestMaxPool:
    def test_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_gradcheck_random(self):
        rng = np.random.default_rng(9)
        # Distinct values avoid argmax ties that break FD comparison.
        x = rng.permutation(np.arange(64.0)).reshape(1, 1, 8, 8) * 0.1
        check_grad(lambda t: max_pool2d(t, 2), x)


class TestUpsampleAvgPool:
    def test_upsample_forward(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = upsample2x(Tensor(x))
        np.testing.assert_allclose(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_upsample_grad_sums(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        upsample2x(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_gradcheck(self):
        check_grad(upsample2x, np.random.default_rng(10).normal(size=(1, 2, 3, 3)))
