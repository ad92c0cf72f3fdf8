"""Tests for the UNet backbone."""

import numpy as np
import pytest

from repro.nn import Adam, Tensor, UNet, mse_loss


class TestShapes:
    @pytest.mark.parametrize("hw", [(8, 8), (12, 16), (10, 10)])
    def test_output_matches_input_size(self, hw):
        net = UNet(in_channels=3, out_channels=1, base_channels=4, depth=2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, *hw)))
        out = net(x)
        assert out.shape == (1, 1, *hw)

    def test_odd_sizes_padded_and_cropped(self):
        net = UNet(in_channels=1, base_channels=4, depth=2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 7, 9)))
        assert net(x).shape == (2, 1, 7, 9)

    def test_depth_three(self):
        net = UNet(in_channels=2, base_channels=2, depth=3, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 16, 16)))
        assert net(x).shape == (1, 1, 16, 16)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            UNet(in_channels=1, depth=0)

    def test_non_4d_rejected(self):
        net = UNet(in_channels=1, base_channels=2, depth=1, rng=0)
        with pytest.raises(ValueError):
            net(Tensor(np.ones((1, 8, 8))))

    def test_receptive_field_grows_with_depth(self):
        shallow = UNet(in_channels=1, depth=1, base_channels=2, rng=0)
        deep = UNet(in_channels=1, depth=3, base_channels=2, rng=0)
        assert (deep.receptive_field_radius()
                > shallow.receptive_field_radius())


class TestTraining:
    def test_deterministic_init(self):
        a = UNet(in_channels=1, base_channels=2, depth=1, rng=42)
        b = UNet(in_channels=1, base_channels=2, depth=1, rng=42)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8, 8)))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_gradients_reach_all_parameters(self):
        net = UNet(in_channels=2, base_channels=2, depth=2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 8, 8)))
        net(x).sum().backward()
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert not missing, f"parameters with no gradient: {missing}"

    def test_overfits_single_sample(self):
        """A small UNet must be able to memorise one input->output pair."""
        rng = np.random.default_rng(0)
        net = UNet(in_channels=1, base_channels=4, depth=1, rng=1)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        target = Tensor(rng.normal(size=(1, 1, 8, 8)))
        opt = Adam(net.parameters(), lr=1e-2)
        first = None
        for step in range(400):
            opt.zero_grad()
            loss = mse_loss(net(x), target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05 * first

    def test_input_gradient_available(self):
        """The surrogate use-case: gradients w.r.t. the *input* layout."""
        net = UNet(in_channels=1, base_channels=2, depth=1, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8, 8)),
                   requires_grad=True)
        net(x).sum().backward()
        assert x.grad is not None
        assert x.grad.shape == (1, 1, 8, 8)
        assert np.any(x.grad != 0)
