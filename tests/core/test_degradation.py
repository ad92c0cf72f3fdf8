"""Tests for performance-degradation estimation (Eqs. 4, 12-17)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceDegradation, ScoreCoefficients, overlay_area
from repro.core.degradation import fill_amount, overlay_gradient, overlay_gradient_paper
from repro.layout import compute_slack_regions, make_design_a
from repro.layout.fill_regions import SlackRegions


@pytest.fixture(scope="module")
def layout():
    return make_design_a(rows=8, cols=8)


@pytest.fixture(scope="module")
def regions(layout):
    return compute_slack_regions(layout)


class TestFillAmount:
    def test_eq4(self):
        fill = np.arange(12.0).reshape(3, 2, 2)
        assert fill_amount(fill) == pytest.approx(66.0)


class TestOverlayArea:
    def test_zero_fill_zero_overlay(self, layout, regions):
        ov, dw, dd = overlay_area(np.zeros(layout.shape), regions)
        assert ov == dw == dd == 0.0

    def test_type1_only_fill_no_wire_overlay(self, layout, regions):
        fill = np.minimum(regions.type1, 0.5 * regions.type1)
        ov, dw, dd = overlay_area(fill, regions)
        assert dw == 0.0  # type-1 dummies overlap no wires

    def test_full_fill_overlaps(self, layout, regions):
        fill = layout.slack_stack()
        ov, dw, dd = overlay_area(fill, regions)
        assert dw > 0
        assert ov == pytest.approx(dw + dd)

    def test_eq13_weights(self, layout, regions):
        """Dummy-to-wire overlay counts type 2/3 once and type 4 twice."""
        fill = layout.slack_stack()
        _, dw, _ = overlay_area(fill, regions)
        expected = float(
            (regions.type2 + regions.type3 + 2 * regions.type4).sum()
        )
        assert dw == pytest.approx(expected)

    def test_single_layer_no_dummy_dummy(self):
        lay = make_design_a(rows=6, cols=6)
        single = type(lay)("s", lay.grid, [lay.layers[0]])
        regs = compute_slack_regions(single)
        ov, dw, dd = overlay_area(single.slack_stack(), regs)
        assert dd == 0.0


class TestOverlayGradient:
    def test_matches_finite_difference(self, layout, regions):
        rng = np.random.default_rng(0)
        fill = 0.5 * rng.random(layout.shape) * layout.slack_stack()
        grad = overlay_gradient(fill, regions)
        eps = 1e-4
        for _ in range(12):
            l = rng.integers(0, layout.num_layers)
            i = rng.integers(0, 8)
            j = rng.integers(0, 8)
            hi = fill.copy()
            hi[l, i, j] += eps
            lo = fill.copy()
            lo[l, i, j] -= eps
            fd = (overlay_area(hi, regions)[0] - overlay_area(lo, regions)[0]) / (2 * eps)
            assert grad[l, i, j] == pytest.approx(fd, abs=1e-6)

    def test_gradient_values_in_range(self, layout, regions):
        rng = np.random.default_rng(1)
        fill = rng.random(layout.shape) * layout.slack_stack()
        grad = overlay_gradient(fill, regions)
        assert np.all(grad >= 0)
        assert np.all(grad <= 2.0 + 1e-12)

    def test_paper_gradient_cases(self, layout, regions):
        """Eq. 16 reference: values in {0, 1, 2}."""
        rng = np.random.default_rng(2)
        fill = rng.random(layout.shape) * layout.slack_stack()
        grad = overlay_gradient_paper(fill, regions)
        assert set(np.unique(grad)) <= {0.0, 1.0, 2.0}

    @given(frac=st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_overlay_monotone_in_fill(self, frac):
        lay = make_design_a(rows=6, cols=6)
        regs = compute_slack_regions(lay)
        slack = lay.slack_stack()
        ov_lo, _, _ = overlay_area(frac * 0.5 * slack, regs)
        ov_hi, _, _ = overlay_area(frac * 0.5 * slack + 0.1 * slack, regs)
        assert ov_hi >= ov_lo - 1e-9


class TestPerformanceDegradation:
    def test_zero_fill_full_score(self, layout):
        coeffs = ScoreCoefficients()
        pd = PerformanceDegradation(layout, coeffs)
        breakdown, grad = pd.evaluate(np.zeros(layout.shape))
        assert breakdown.score_fill == 1.0
        assert breakdown.score_overlay == 1.0
        assert breakdown.s_pd == pytest.approx(
            coeffs.alpha_fill + coeffs.alpha_overlay
        )

    def test_gradient_negative_inside_band(self, layout):
        coeffs = ScoreCoefficients(beta_fill=1e9, beta_overlay=1e9)
        pd = PerformanceDegradation(layout, coeffs)
        fill = 0.3 * layout.slack_stack()
        _, grad = pd.evaluate(fill)
        assert np.all(grad <= 0)
        assert np.any(grad < 0)

    def test_gradient_respects_saturation(self, layout):
        """Tiny betas: every score saturates at 0, gradient must vanish."""
        coeffs = ScoreCoefficients(beta_fill=1e-3, beta_overlay=1e-3)
        pd = PerformanceDegradation(layout, coeffs)
        fill = 0.5 * layout.slack_stack()
        breakdown, grad = pd.evaluate(fill)
        assert breakdown.score_fill == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_matches_fd_on_spd(self, layout):
        coeffs = ScoreCoefficients(beta_fill=5e6, beta_overlay=5e6)
        pd = PerformanceDegradation(layout, coeffs)
        rng = np.random.default_rng(3)
        fill = 0.4 * rng.random(layout.shape) * layout.slack_stack()
        _, grad = pd.evaluate(fill)
        eps = 1e-3
        for _ in range(8):
            l = rng.integers(0, layout.num_layers)
            i = rng.integers(0, 8)
            j = rng.integers(0, 8)
            hi = fill.copy()
            hi[l, i, j] += eps
            lo = fill.copy()
            lo[l, i, j] -= eps
            fd = (pd.evaluate(hi, want_grad=False)[0].s_pd
                  - pd.evaluate(lo, want_grad=False)[0].s_pd) / (2 * eps)
            assert grad[l, i, j] == pytest.approx(fd, abs=1e-9)

    def test_want_grad_false(self, layout):
        pd = PerformanceDegradation(layout, ScoreCoefficients())
        breakdown, grad = pd.evaluate(np.zeros(layout.shape), want_grad=False)
        assert grad is None


def module_evaluate(pd, fill):
    """``PerformanceDegradation.evaluate`` written with the module
    functions, each allocating the fill on its own: the reference the
    evaluator's one allocation per call must match bit for bit."""
    c = pd.coefficients
    fa = fill_amount(fill)
    ov, dw, dd = overlay_area(fill, pd.regions)
    f_fa = min(1.0, max(0.0, 1.0 - fa / c.beta_fill))
    f_ov = min(1.0, max(0.0, 1.0 - ov / c.beta_overlay))
    grad = np.zeros(fill.shape)
    if 0.0 < f_fa < 1.0:
        grad -= c.alpha_fill / c.beta_fill
    if 0.0 < f_ov < 1.0:
        grad -= (c.alpha_overlay / c.beta_overlay) * overlay_gradient(
            fill, pd.regions)
    return (fa, ov, dw, dd, f_fa, f_ov,
            c.alpha_fill * f_fa + c.alpha_overlay * f_ov), grad


class TestOneAllocationPerEvaluation:
    @pytest.mark.parametrize("scale", [0.2, 0.6, 1.0])
    def test_matches_module_functions_bitwise(self, layout, scale):
        pd = PerformanceDegradation(
            layout, ScoreCoefficients(beta_fill=5e6, beta_overlay=5e6))
        rng = np.random.default_rng(int(10 * scale))
        slack = layout.slack_stack()
        for _ in range(4):
            fill = scale * rng.random(layout.shape) * slack
            breakdown, grad = pd.evaluate(fill)
            values, want = module_evaluate(pd, fill)
            assert (breakdown.fill_amount, breakdown.overlay,
                    breakdown.overlay_dummy_wire,
                    breakdown.overlay_dummy_dummy, breakdown.score_fill,
                    breakdown.score_overlay, breakdown.s_pd) == values
            assert grad.tobytes() == want.tobytes()
            assert pd.evaluate(fill, want_grad=False)[0] == breakdown

    def test_capacity_exceeded_raises(self, layout):
        pd = PerformanceDegradation(layout, ScoreCoefficients())
        fill = layout.slack_stack().copy()
        fill[0, 0, 0] += 1.0
        with pytest.raises(ValueError, match="capacity"):
            pd.evaluate(fill)
        with pytest.raises(ValueError, match="capacity"):
            pd.evaluate(fill, want_grad=False)
