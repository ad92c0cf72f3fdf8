"""Vectorised conv adjoint vs an explicit scatter loop, and the dtype.

``conv2d``'s input gradient is a dilate-pad-flip correlation; these
tests pin it against the naive loop implementation it replaced,
including the awkward stride-2 shapes where the dilated gradient does
not cover the padded input.  The dtype test pins the one compute
precision, float64.
"""

import numpy as np
import pytest

from repro.nn import Tensor, conv2d


def brute_conv2d_input_grad(grad, w, x_shape, stride, padding):
    """Scatter-loop adjoint of conv2d with respect to its input."""
    B, C, H, W = x_shape
    O, _, kh, kw = w.shape
    gx = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
    Ho, Wo = grad.shape[2:]
    for bb in range(B):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    gx[bb, :, i * stride : i * stride + kh,
                       j * stride : j * stride + kw] += grad[bb, o, i, j] * w[o]
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return gx


class TestVectorizedConvAdjoint:
    # Heights 6 and 7 at stride 2 respectively do and do not make the
    # dilated upstream gradient cover the padded input exactly — both
    # branches of the einsum formulation get exercised.
    @pytest.mark.parametrize("stride,padding,H,W", [
        (1, 0, 6, 7), (1, 1, 6, 7), (2, 0, 7, 7), (2, 1, 7, 7),
        (2, 1, 6, 6), (2, 0, 6, 8), (3, 1, 8, 7),
    ])
    def test_input_grad_matches_scatter_loop(self, stride, padding, H, W):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, H, W))
        w = rng.normal(size=(4, 3, 3, 3))
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w), stride=stride, padding=padding)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        expected = brute_conv2d_input_grad(upstream, w, x.shape, stride, padding)
        np.testing.assert_allclose(xt.grad, expected, rtol=1e-12, atol=1e-12)


class TestComputeDtype:
    def test_default_is_float64(self):
        assert Tensor(np.zeros(3)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float64
        assert Tensor([1, 2]).dtype == np.float64
