"""Vectorised conv adjoint vs an explicit scatter loop, and dtype modes.

``conv2d``'s input gradient is a dilate-pad-flip correlation; these
tests pin it against the naive loop implementation it replaced,
including the awkward stride-2 shapes where the dilated gradient does
not cover the padded input.  The dtype tests cover the opt-in float32
compute mode.
"""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    UNet,
    compute_dtype,
    conv2d,
    get_default_dtype,
    set_default_dtype,
)


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
        assert get_default_dtype() == np.float64
        assert Tensor(np.zeros(3)).dtype == np.float64

    def test_context_manager_scopes_the_switch(self):
        with compute_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with compute_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_module_to_dtype_casts_everything(self):
        unet = UNet(in_channels=2, out_channels=1, base_channels=4,
                    depth=1, rng=0)
        unet.to_dtype(np.float32)
        for p in unet.parameters():
            assert p.data.dtype == np.float32

    def test_float32_forward_close_to_float64(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 8, 8))
        unet64 = UNet(in_channels=2, out_channels=1, base_channels=4,
                      depth=1, rng=0)
        unet64.eval()
        ref = unet64(Tensor(x)).data

        unet32 = UNet(in_channels=2, out_channels=1, base_channels=4,
                      depth=1, rng=0)
        unet32.eval()
        unet32.to_dtype(np.float32)
        with compute_dtype(np.float32):
            out = unet32(Tensor(x)).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)
