"""Cropped (single-tile) inference vs the monolithic forward.

``evaluate_region`` runs the network on one halo-padded tile of the
chip — the crop :meth:`CmpNeuralNetwork.plan_region` snaps to the
pooling alignment around an active block.  With crop origins on the
alignment and a halo covering the receptive field, every window of the
tile's core sees the identical computation as in the monolithic pass,
so stitching the cores of a chip-covering set of tiles reproduces
``predict_heights`` to floating-point precision (1e-6 relative is
asserted; in practice the match is exact to the last ulp).
"""

import numpy as np
import pytest

from repro.layout import make_design_a, make_design_b
from repro.nn import UNet
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityWeights,
)
from repro.surrogate.network import EvalRegion

WEIGHTS = PlanarityWeights(0.2, 100.0, 0.2, 1000.0, 0.15, 10.0)


def _network(layout, depth=1, seed=0):
    unet = UNet(in_channels=NUM_FEATURE_CHANNELS, out_channels=1,
                base_channels=4, depth=depth, rng=seed)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(mean=6000.0, std=40.0))


def _random_fill(layout, seed=5):
    rng = np.random.default_rng(seed)
    slack = layout.slack_stack()
    return rng.random(slack.shape) * slack


def _cropped(net, fill, region):
    """Heights of one cropped pass; zero base heights, so only the
    tile's core carries recomputed values."""
    return net.evaluate_region(fill, region, np.zeros(net.grid_shape),
                               WEIGHTS, want_grad=False).heights


def _stitched(net, fill, tile, widen=0):
    """Chip heights stitched from one cropped pass per ``tile`` block;
    ``widen`` grows every crop by that many extra (aligned) windows."""
    L, N, M = net.grid_shape
    out = np.full((L, N, M), np.nan)
    for r0 in range(0, N, tile):
        for c0 in range(0, M, tile):
            active = np.zeros((N, M), bool)
            active[r0:r0 + tile, c0:c0 + tile] = True
            region = net.plan_region(active)
            if widen:
                region = EvalRegion(
                    region.r0, region.r1, region.c0, region.c1,
                    max(0, region.sr0 - widen), min(N, region.sr1 + widen),
                    max(0, region.sc0 - widen), min(M, region.sc1 + widen))
            block = (slice(None), slice(r0, r0 + tile), slice(c0, c0 + tile))
            out[block] = _cropped(net, fill, region)[block]
    return out


def _rel_err(tiled, mono):
    return float(np.max(np.abs(tiled - mono)) / np.max(np.abs(mono)))


class TestTiledMatchesMonolithic:
    @pytest.mark.parametrize("tile", [16, 32])
    def test_square_grid_depth1(self, tile):
        net = _network(make_design_a(rows=48, cols=48))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        assert _rel_err(_stitched(net, fill, tile), mono) <= 1e-6

    def test_rectangular_grid_depth2(self):
        net = _network(make_design_b(rows=48, cols=40), depth=2)
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        assert _rel_err(_stitched(net, fill, 16), mono) <= 1e-6

    def test_odd_grid_not_multiple_of_alignment(self):
        # 50x46 is not a multiple of 2**depth: the monolithic forward
        # zero-pads to the alignment and so must every boundary crop.
        net = _network(make_design_a(rows=50, cols=46))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        assert _rel_err(_stitched(net, fill, 16), mono) <= 1e-6

    def test_default_fill_is_zero(self):
        net = _network(make_design_a(rows=32, cols=32))
        np.testing.assert_allclose(
            _stitched(net, None, 16), net.predict_heights(), rtol=1e-6,
        )

    def test_tile_larger_than_chip(self):
        net = _network(make_design_a(rows=24, cols=24))
        fill = _random_fill(net.layout)
        np.testing.assert_allclose(
            _stitched(net, fill, 256), net.predict_heights(fill), rtol=1e-6,
        )

    def test_explicit_halo_rounded_to_alignment(self):
        net = _network(make_design_a(rows=32, cols=32))
        fill = _random_fill(net.layout)
        mono = net.predict_heights(fill)
        # An over-generous halo must stay exact (only slower): widen every
        # crop by 15 windows rounded up to the alignment.
        align = net.unet.alignment
        widen = -(-15 // align) * align
        assert _rel_err(_stitched(net, fill, 16, widen=widen), mono) <= 1e-6


class TestValidation:
    def test_rejects_stacked_fills(self):
        net = _network(make_design_a(rows=16, cols=16))
        region = net.plan_region(np.ones(net.grid_shape[1:], bool))
        with pytest.raises(ValueError):
            _cropped(net, np.zeros((2, *net.layout.shape)), region)

    def test_rejects_wrong_grid_shape(self):
        net = _network(make_design_a(rows=16, cols=16))
        L, N, M = net.layout.shape
        region = net.plan_region(np.ones((N, M), bool))
        with pytest.raises(ValueError):
            _cropped(net, np.zeros((L, N + 1, M)), region)
        with pytest.raises(ValueError):
            net.plan_region(np.ones((N + 1, M), bool))

    def test_rejects_negative_halo(self):
        # A crop inside its own core would be a negative halo.
        with pytest.raises(ValueError, match="core inside its crop"):
            EvalRegion(0, 8, 0, 8, 2, 6, 0, 8)

    def test_rejects_nonpositive_tile(self):
        with pytest.raises(ValueError, match="non-empty core"):
            EvalRegion(4, 4, 0, 8, 0, 8, 0, 8)
        net = _network(make_design_a(rows=16, cols=16))
        assert net.plan_region(np.zeros(net.grid_shape[1:], bool)) is None


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
