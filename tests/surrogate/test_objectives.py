"""Tests for the objective layers (Eqs. 1-3, 6, 10).

The layers take stacked ``(K, L, N, M)`` heights; single maps are the
K = 1 stack (``h[None]``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.surrogate import (
    PlanarityWeights,
    height_variance,
    line_deviation,
    outliers,
    outliers_hard,
    score_function,
)
from repro.surrogate.objectives import breakdowns_from_terms, planarity_terms

from ..nn.gradcheck import check_grad

height_arrays = hnp.arrays(
    np.float64, (2, 4, 5), elements=st.floats(-5, 5)
)


def planarity_score(heights, weights):
    """``S_plan`` tensor and breakdown of one ``(L, N, M)`` map."""
    terms = planarity_terms(heights[None], weights)
    arrays = {name: t.data for name, t in terms.items()}
    return terms["s_plan"], breakdowns_from_terms(arrays)[0]


def weights():
    return PlanarityWeights(
        alpha_sigma=0.2, beta_sigma=10.0,
        alpha_line=0.2, beta_line=100.0,
        alpha_outlier=0.15, beta_outlier=5.0,
    )


class TestHeightVariance:
    def test_flat_layers_zero(self):
        h = Tensor(np.ones((1, 3, 4, 4)) * np.arange(1, 4)[:, None, None])
        assert height_variance(h).item() == pytest.approx(0.0)

    def test_matches_numpy_per_layer_sum(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 5, 6))
        expected = sum(np.var(h[l]) for l in range(3))
        assert height_variance(Tensor(h[None])).item() == pytest.approx(expected)

    def test_mean_shift_invariant(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(2, 4, 4))
        v1 = height_variance(Tensor(h[None])).item()
        v2 = height_variance(Tensor(h[None] + 100.0)).item()
        assert v1 == pytest.approx(v2)

    def test_gradient(self):
        check_grad(height_variance,
                   np.random.default_rng(2).normal(size=(2, 2, 3, 3)))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            height_variance(Tensor(np.ones((4, 4))))

    def test_rejects_unstacked_map(self):
        with pytest.raises(ValueError, match="K, L, N, M"):
            height_variance(Tensor(np.ones((2, 4, 4))))

    def test_candidates_independent(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(3, 2, 4, 5))
        stacked = height_variance(Tensor(h)).data
        for k in range(3):
            assert stacked[k] == height_variance(Tensor(h[k:k + 1])).item()


class TestLineDeviation:
    def test_column_uniform_zero(self):
        """Heights constant within each column -> zero line deviation."""
        h = np.tile(np.arange(5.0), (4, 1))[None, None]  # (1, 1, 4, 5)
        assert line_deviation(Tensor(h)).item() == pytest.approx(0.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2, 4, 5))
        expected = 0.0
        for l in range(2):
            col_mean = h[l].mean(axis=0, keepdims=True)
            expected += np.abs(h[l] - col_mean).sum()
        assert line_deviation(Tensor(h[None])).item() == pytest.approx(expected)

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(1, 1, 3, 3)) * 3.0
        check_grad(line_deviation, h, eps=1e-7, rtol=1e-3, atol=1e-5)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            line_deviation(Tensor(np.ones(4)))


class TestOutliers:
    def test_no_outliers_for_uniform(self):
        h = Tensor(np.ones((1, 1, 5, 5)))
        assert outliers(h).item() == pytest.approx(0.0, abs=1.0)

    def test_detects_spike(self):
        h = np.zeros((1, 10, 10))
        h[0, 5, 5] = 100.0
        smooth = outliers(Tensor(h[None]), eta=1.0).item()
        hard = outliers_hard(h)
        assert hard > 0
        assert smooth == pytest.approx(hard, rel=0.1)

    def test_smooth_approximates_hard(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(2, 12, 12))
        h[0, 0, 0] = 8.0  # force an outlier
        smooth = outliers(Tensor(h[None]), eta=10.0).item()
        hard = outliers_hard(h)
        assert smooth == pytest.approx(hard, abs=0.8)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            outliers(Tensor(np.ones((1, 1, 2, 2))), eta=0.0)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        check_grad(lambda t: outliers(t, eta=2.0), rng.normal(size=(1, 1, 4, 4)),
                   eps=1e-6, rtol=1e-3, atol=1e-6)

    def test_hard_reference_nonnegative(self):
        rng = np.random.default_rng(7)
        assert outliers_hard(rng.normal(size=(3, 6, 6))) >= 0.0


class TestScoreFunction:
    def test_float_values(self):
        assert score_function(0.0, 10.0) == 1.0
        assert score_function(5.0, 10.0) == 0.5
        assert score_function(20.0, 10.0) == 0.0
        assert score_function(-5.0, 10.0) == 1.0  # capped

    def test_tensor_values(self):
        t = Tensor(np.array([0.0, 5.0, 20.0, -5.0]))
        np.testing.assert_allclose(score_function(t, 10.0).data, [1, 0.5, 0, 1])

    def test_gradient_inside_band(self):
        t = Tensor(np.array([5.0]), requires_grad=True)
        score_function(t, 10.0).sum().backward()
        np.testing.assert_allclose(t.grad, [-0.1])

    def test_gradient_zero_when_saturated(self):
        t = Tensor(np.array([50.0]), requires_grad=True)
        score_function(t, 10.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0])

    def test_beta_positive_required(self):
        with pytest.raises(ValueError):
            score_function(1.0, 0.0)


class TestPlanarityScore:
    def test_flat_profile_maximal(self):
        h = Tensor(np.ones((2, 6, 6)) * 5.0)
        s, br = planarity_score(h, weights())
        total_alpha = 0.2 + 0.2 + 0.15
        assert s.item() == pytest.approx(total_alpha)
        assert br.score_sigma == 1.0
        assert br.score_line == 1.0

    def test_breakdown_consistent(self):
        rng = np.random.default_rng(8)
        h = Tensor(rng.normal(size=(2, 6, 6)))
        s, br = planarity_score(h, weights())
        assert s.item() == pytest.approx(br.s_plan)
        combined = (
            0.2 * br.score_sigma + 0.2 * br.score_line + 0.15 * br.score_outlier
        )
        assert s.item() == pytest.approx(combined)

    def test_gradient_flows_to_heights(self):
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        s, _ = planarity_score(h, weights())
        s.backward()
        assert h.grad is not None
        assert np.any(h.grad != 0)

    @given(height_arrays)
    @settings(max_examples=20, deadline=None)
    def test_property_score_bounded(self, h):
        s, br = planarity_score(Tensor(h), weights())
        assert -1e-9 <= s.item() <= 0.55 + 1e-9
        for val in (br.score_sigma, br.score_line, br.score_outlier):
            assert -1e-9 <= val <= 1.0 + 1e-9

    @given(height_arrays)
    @settings(max_examples=20, deadline=None)
    def test_property_flatter_never_worse_sigma(self, h):
        """Scaling deviations down never lowers the variance score."""
        mean = h.mean(axis=(1, 2), keepdims=True)
        flatter = mean + 0.5 * (h - mean)
        _, br1 = planarity_score(Tensor(h), weights())
        _, br2 = planarity_score(Tensor(flatter), weights())
        assert br2.score_sigma >= br1.score_sigma - 1e-9
