"""Batched network evaluation vs the sequential per-fill path.

``evaluate_batch`` stacks K fill vectors into one network pass; every
row must reproduce ``evaluate`` on the same fill to machine precision
(BatchNorm runs in eval mode, so samples never interact).  A single
fill is the K = 1 stack, so at K = 1 the match is bitwise and both
calls share one captured plan.
"""

import numpy as np
import pytest

from repro.layout import make_design_a
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import Tensor, UNet
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityWeights,
)
from repro.surrogate.objectives import planarity_terms

WEIGHTS = PlanarityWeights(0.2, 100.0, 0.2, 1000.0, 0.15, 10.0)


@pytest.fixture(scope="module")
def net():
    layout = make_design_a(rows=8, cols=8)
    unet = UNet(in_channels=NUM_FEATURE_CHANNELS, out_channels=1,
                base_channels=4, depth=1, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(mean=6000.0, std=40.0))


@pytest.fixture(scope="module")
def fills(net):
    rng = np.random.default_rng(5)
    slack = net.layout.slack_stack()
    return rng.random((3, *slack.shape)) * slack


class TestEvaluateBatch:
    def test_matches_sequential(self, net, fills):
        batch = net.evaluate_batch(fills, WEIGHTS)
        for k in range(fills.shape[0]):
            single = net.evaluate(fills[k], WEIGHTS)
            np.testing.assert_allclose(batch.s_plan[k], single.s_plan,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(batch.heights[k], single.heights,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(batch.gradient[k], single.gradient,
                                       rtol=0, atol=1e-10)
            bd, sd = batch.breakdowns[k], single.breakdown
            assert bd.sigma == pytest.approx(sd.sigma, abs=1e-10)
            assert bd.line == pytest.approx(sd.line, abs=1e-10)
            assert bd.outlier == pytest.approx(sd.outlier, abs=1e-10)
            assert bd.s_plan == pytest.approx(sd.s_plan, abs=1e-10)

    def test_grad_mask_zeroes_unrequested_rows(self, net, fills):
        mask = np.array([True, False, True])
        batch = net.evaluate_batch(fills, WEIGHTS, grad_mask=mask)
        assert np.all(batch.gradient[1] == 0.0)
        for k in (0, 2):
            single = net.evaluate(fills[k], WEIGHTS)
            np.testing.assert_allclose(batch.gradient[k], single.gradient,
                                       rtol=0, atol=1e-10)
        # Masked rows still get their (forward-only) scores.
        full = net.evaluate_batch(fills, WEIGHTS, want_grad=False)
        np.testing.assert_allclose(batch.s_plan, full.s_plan, rtol=0, atol=0)

    def test_forward_only(self, net, fills):
        batch = net.evaluate_batch(fills, WEIGHTS, want_grad=False)
        assert batch.gradient is None
        assert batch.s_plan.shape == (3,)
        assert batch.heights.shape == fills.shape

    def test_rejects_unstacked_fill(self, net):
        with pytest.raises(ValueError):
            net.evaluate_batch(np.zeros(net.layout.shape), WEIGHTS)

    def test_rejects_bad_mask_shape(self, net, fills):
        with pytest.raises(ValueError):
            net.evaluate_batch(fills, WEIGHTS, grad_mask=np.array([True, False]))


class TestPlanarityScoreBatch:
    def test_matches_per_sample_score(self):
        rng = np.random.default_rng(0)
        heights = rng.normal(6000.0, 30.0, size=(4, 2, 6, 6))
        batched = planarity_terms(Tensor(heights), WEIGHTS)
        assert batched["s_plan"].data.shape == (4,)
        for k in range(4):
            single = planarity_terms(Tensor(heights[k:k + 1]), WEIGHTS)
            for name, term in batched.items():
                assert float(term.data[k]) == pytest.approx(
                    single[name].item(), abs=1e-10), name


def _k1_cases():
    for design, rows, cols in (("A", 13, 7), ("A", 1, 9), ("B", 17, 11),
                               ("C", 9, 20)):
        for capture in (True, False):
            yield pytest.param(design, rows, cols, capture,
                               id=f"{design}{rows}x{cols}-capture{capture}")


def _network(design, rows, cols, capture):
    layout = DESIGN_BUILDERS[design](rows=rows, cols=cols, seed=3)
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(6000.0, 40.0),
                            capture=capture)


class TestSingleFillIsK1Stack:
    @pytest.mark.parametrize("design,rows,cols,capture", _k1_cases())
    @pytest.mark.parametrize("want_grad", [True, False])
    def test_evaluate_is_row0_of_batch(self, design, rows, cols, capture,
                                       want_grad):
        net = _network(design, rows, cols, capture)
        slack = net.layout.slack_stack()
        rng = np.random.default_rng(7)
        # Two fills each way: the first call traces, the second replays.
        for fill in (rng.random(slack.shape) * slack for _ in range(2)):
            single = net.evaluate(fill, WEIGHTS, want_grad=want_grad)
            batch = net.evaluate_batch(fill[None], WEIGHTS,
                                       want_grad=want_grad)
            assert single.s_plan == batch.s_plan[0]
            assert single.breakdown == batch.breakdowns[0]
            np.testing.assert_array_equal(single.heights, batch.heights[0])
            if want_grad:
                np.testing.assert_array_equal(single.gradient,
                                              batch.gradient[0])
            else:
                assert single.gradient is None and batch.gradient is None

    def test_single_fill_and_k1_batch_share_one_plan(self, net, fills):
        fresh = CmpNeuralNetwork(net.layout, net.unet, net.normalizer)
        fresh.evaluate(fills[0], WEIGHTS)
        fresh.evaluate_batch(fills[1][None], WEIGHTS)
        stats = fresh.capture_stats()
        assert stats["trace"] == 1
        assert stats["replay"] == 1
        assert len(stats["plans"]) == 1
