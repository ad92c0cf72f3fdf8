"""Tiled full-chip inference vs the monolithic forward.

``predict_heights_tiled`` stitches halo-padded tile forwards; with tile
origins on the pooling alignment and a halo covering the receptive
field, every stitched window must see the identical computation as the
monolithic pass, so the two paths agree to floating-point precision
(the ISSUE acceptance bound is 1e-6 relative; in practice the match is
exact to the last ulp).
"""

import numpy as np
import pytest

from repro.layout import make_design_a, make_design_b
from repro.nn import UNet
from repro.surrogate import NUM_FEATURE_CHANNELS, CmpNeuralNetwork, HeightNormalizer


def _network(layout, depth=1, seed=0):
    unet = UNet(in_channels=NUM_FEATURE_CHANNELS, out_channels=1,
                base_channels=4, depth=depth, rng=seed)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(mean=6000.0, std=40.0))


def _random_fill(layout, seed=5):
    rng = np.random.default_rng(seed)
    slack = layout.slack_stack()
    return rng.random(slack.shape) * slack


def _rel_err(tiled, mono):
    return float(np.max(np.abs(tiled - mono)) / np.max(np.abs(mono)))


class TestTiledMatchesMonolithic:
    @pytest.mark.parametrize("tile", [16, 32])
    def test_square_grid_depth1(self, tile):
        net = _network(make_design_a(rows=48, cols=48))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        tiled = net.predict_heights_tiled(fill, tile=tile)
        assert _rel_err(tiled, mono) <= 1e-6

    def test_rectangular_grid_depth2(self):
        net = _network(make_design_b(rows=48, cols=40), depth=2)
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        tiled = net.predict_heights_tiled(fill, tile=16)
        assert _rel_err(tiled, mono) <= 1e-6

    def test_odd_grid_not_multiple_of_alignment(self):
        # 50x46 is not a multiple of 2**depth: the monolithic forward
        # zero-pads to the alignment and so must every boundary tile.
        net = _network(make_design_a(rows=50, cols=46))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        tiled = net.predict_heights_tiled(fill, tile=16)
        assert _rel_err(tiled, mono) <= 1e-6

    def test_default_fill_is_zero(self):
        net = _network(make_design_a(rows=32, cols=32))
        np.testing.assert_allclose(
            net.predict_heights_tiled(tile=16), net.predict_heights(),
            rtol=1e-6,
        )

    def test_tile_larger_than_chip(self):
        net = _network(make_design_a(rows=24, cols=24))
        fill = _random_fill(net.layout)
        np.testing.assert_allclose(
            net.predict_heights_tiled(fill, tile=256),
            net.predict_heights(fill), rtol=1e-6,
        )

    def test_explicit_halo_rounded_to_alignment(self):
        net = _network(make_design_a(rows=32, cols=32))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        # An over-generous halo must stay exact (only slower).
        tiled = net.predict_heights_tiled(fill, tile=16, halo=15)
        assert _rel_err(tiled, mono) <= 1e-6


class TestValidation:
    def test_rejects_stacked_fills(self):
        net = _network(make_design_a(rows=16, cols=16))
        with pytest.raises(ValueError):
            net.predict_heights_tiled(np.zeros((2, *net.layout.shape)))

    def test_rejects_wrong_grid_shape(self):
        net = _network(make_design_a(rows=16, cols=16))
        L, N, M = net.layout.shape
        with pytest.raises(ValueError):
            net.predict_heights_tiled(np.zeros((L, N + 1, M)))

    def test_rejects_negative_halo(self):
        net = _network(make_design_a(rows=16, cols=16))
        with pytest.raises(ValueError):
            net.predict_heights_tiled(tile=8, halo=-1)

    def test_rejects_nonpositive_tile(self):
        net = _network(make_design_a(rows=16, cols=16))
        with pytest.raises(ValueError):
            net.predict_heights_tiled(tile=0)


class TestReceptiveFieldMetadata:
    def test_alignment_is_pooling_factor(self):
        for depth in (1, 2):
            unet = UNet(in_channels=2, out_channels=1, base_channels=4,
                        depth=depth, rng=0)
            assert unet.alignment == 2**depth

    def test_exact_radius_known_values(self):
        # Span recursion over 3x3 double-convs: depth 1 -> 10, depth 2 -> 25
        # (the up-path convs widen the field).
        unet1 = UNet(in_channels=2, out_channels=1, base_channels=4,
                     depth=1, rng=0)
        unet2 = UNet(in_channels=2, out_channels=1, base_channels=4,
                     depth=2, rng=0)
        assert unet1.receptive_field_radius() == 10
        assert unet2.receptive_field_radius() == 25
