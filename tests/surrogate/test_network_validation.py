"""Regression tests for the network's fill/halo validation contract.

Silent-failure modes the boundary checks close:

* Region (single-tile) evaluation used to be planned with a **zero
  halo** when the bound model did not expose ``receptive_field_radius``
  — voiding the exactness guarantee without a word.  It must raise
  instead; a caller who knows the model's field builds the
  :class:`EvalRegion` explicitly.
* Fills used to be defaulted/validated against ``self.layout.shape`` in
  one path and ``self.consts.density.shape`` in another; every entry
  point now goes through one checked helper keyed on the extraction
  constants (what the forward actually consumes) and fails loudly on a
  mismatch.
* A NaN or inf fill entry used to flow through the surrogate and come
  back as a NaN score; every entry point now rejects it with
  ``ValueError`` before any pass runs.
"""

import numpy as np
import pytest

from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import Conv2d, UNet
from repro.surrogate import NUM_FEATURE_CHANNELS, PlanarityWeights
from repro.surrogate.network import CmpNeuralNetwork, EvalRegion, HeightNormalizer

WEIGHTS = PlanarityWeights(0.2, 100.0, 0.2, 1000.0, 0.15, 10.0)


@pytest.fixture(scope="module")
def layout():
    return DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3)


@pytest.fixture(scope="module")
def network(layout):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0))


@pytest.fixture(scope="module")
def conv_network(layout):
    """A network whose model has no receptive_field_radius() (1x1 conv)."""
    conv = Conv2d(NUM_FEATURE_CHANNELS, 1, 1, rng=np.random.default_rng(0))
    return CmpNeuralNetwork(layout, conv, HeightNormalizer(2500.0, 300.0))


def _whole_chip(network):
    L, N, M = network.grid_shape
    return EvalRegion(0, N, 0, M, 0, N, 0, M)


class TestReceptiveHalo:
    def test_unet_halo_covers_radius_and_aligns(self, network):
        halo = network.receptive_halo()
        radius = network.unet.receptive_field_radius()
        align = network.unet.alignment
        assert halo >= radius
        assert halo % align == 0

    def test_model_without_radius_raises(self, conv_network):
        with pytest.raises(ValueError, match="receptive_field_radius"):
            conv_network.receptive_halo()

    def test_tiled_refuses_silent_zero_halo(self, conv_network):
        # The old behaviour: no receptive_field_radius => halo 0, silently
        # wrong cropped heights.  Now planning a region fails loudly.
        active = np.zeros(conv_network.grid_shape[1:], bool)
        active[2:4, 2:4] = True
        with pytest.raises(ValueError, match="receptive_field_radius"):
            conv_network.plan_region(active)

    def test_tiled_with_explicit_halo_still_works(self, conv_network):
        # A 1x1 conv genuinely has a zero receptive field, so an explicit
        # zero-halo region is exact — the caller owns that claim.
        fill = np.zeros(conv_network.grid_shape)
        fill[:, 2:5, 3:6] = 1.0
        mono = conv_network.predict_heights(fill)
        region = EvalRegion(2, 5, 3, 6, 2, 5, 3, 6)
        cropped = conv_network.evaluate_region(
            fill, region, np.zeros_like(mono), WEIGHTS, want_grad=False)
        np.testing.assert_allclose(cropped.heights[:, 2:5, 3:6],
                                   mono[:, 2:5, 3:6], rtol=1e-12, atol=1e-12)


class TestFillValidation:
    def test_grid_shape_comes_from_extraction_constants(self, network, layout):
        assert network.grid_shape == network.consts.density.shape
        assert network.grid_shape == layout.shape

    def test_monolithic_rejects_wrong_shape(self, network):
        bad = np.zeros((1, 4, 4))
        with pytest.raises(ValueError, match="layout shape"):
            network.predict_heights(bad)

    def test_tiled_rejects_wrong_shape(self, network):
        bad = np.zeros((1, 4, 4))
        with pytest.raises(ValueError, match="layout shape"):
            network.evaluate_region(bad, _whole_chip(network),
                                    np.zeros(network.grid_shape), WEIGHTS)

    def test_both_paths_reject_wrong_ndim(self, network):
        L, N, M = network.grid_shape
        stacked = np.zeros((2, L, N, M))
        with pytest.raises(ValueError, match="layout shape"):
            network.predict_heights(stacked)
        with pytest.raises(ValueError, match="layout shape"):
            network.evaluate_region(stacked, _whole_chip(network),
                                    np.zeros((L, N, M)), WEIGHTS)

    def test_default_fill_is_zeros_of_grid_shape(self, network):
        zero = network.predict_heights()
        explicit = network.predict_heights(np.zeros(network.grid_shape))
        np.testing.assert_array_equal(zero, explicit)

    def test_evaluate_rejects_wrong_shape(self, network):
        with pytest.raises(ValueError, match="layout shape"):
            network.evaluate(np.zeros((1, 4, 4)), WEIGHTS)

    def test_batch_rejects_wrong_row_shape(self, network):
        L, N, M = network.grid_shape
        with pytest.raises(ValueError, match="K, L, N, M"):
            network.evaluate_batch(np.zeros((2, L, N + 1, M)), WEIGHTS)


class TestNonFiniteFills:
    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def bad_fill(self, request, network):
        fill = np.zeros(network.grid_shape)
        fill[1, 3, 4] = request.param
        return fill

    def test_predict_heights(self, network, bad_fill):
        with pytest.raises(ValueError, match="finite"):
            network.predict_heights(bad_fill)

    def test_evaluate(self, network, bad_fill):
        for want_grad in (True, False):
            with pytest.raises(ValueError, match=r"entry \(1, 3, 4\)"):
                network.evaluate(bad_fill, WEIGHTS, want_grad=want_grad)

    def test_evaluate_batch_row(self, network, bad_fill):
        fills = np.stack([np.zeros(network.grid_shape), bad_fill])
        with pytest.raises(ValueError, match=r"entry \(1, 1, 3, 4\)"):
            network.evaluate_batch(fills, WEIGHTS)

    def test_evaluate_region(self, network, bad_fill):
        with pytest.raises(ValueError, match="finite"):
            network.evaluate_region(bad_fill, _whole_chip(network),
                                    np.zeros(network.grid_shape), WEIGHTS)

    def test_rejected_before_any_pass(self, layout, bad_fill):
        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
        fresh = CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0))
        with pytest.raises(ValueError):
            fresh.evaluate(bad_fill, WEIGHTS)
        assert fresh.capture_stats()["trace"] == 0
