"""Tests for PKB starting-point generation and solution scoring."""

import numpy as np
import pytest

from repro.core import (
    ScoreCoefficients,
    estimate_output_file_mb,
    evaluate_solution,
    fill_for_target_density,
    pkb_starting_point,
    planarity_metrics,
    target_density_range,
)
from repro.core.problem import FillProblem
from repro.layout import apply_fill, make_design_a


@pytest.fixture(scope="module")
def layout():
    return make_design_a(rows=8, cols=8)


class TestFillForTargetDensity:
    def test_eq18_cases(self, layout):
        rho = layout.density_stack()
        slack = layout.slack_stack()
        area = layout.grid.window_area
        targets = np.full(layout.num_layers, 0.5)
        fill = fill_for_target_density(layout, targets)
        # Case 1: already denser than target -> no fill.
        dense = rho >= 0.5
        assert np.all(fill[dense] == 0.0)
        # Case 2: cannot reach target -> filled to slack.
        unreachable = (rho + slack / area) < 0.5
        np.testing.assert_allclose(fill[unreachable], slack[unreachable])
        # Case 3: exact top-up elsewhere.
        mid = ~dense & ~unreachable
        np.testing.assert_allclose(
            fill[mid], (0.5 - rho[mid]) * area, rtol=1e-12
        )

    def test_fill_feasible(self, layout):
        fill = fill_for_target_density(layout, np.full(3, 0.8))
        layout.validate_fill(fill)

    def test_bad_targets_shape(self, layout):
        with pytest.raises(ValueError):
            fill_for_target_density(layout, np.zeros(5))

    def test_target_density_range(self, layout):
        lo, hi = target_density_range(layout)
        assert lo.shape == (3,)
        assert np.all(hi > lo)
        assert np.all(hi <= 1.0)


def _totals(fills):
    """Total fill per candidate of a ``(P, L, N, M)`` stack."""
    return fills.sum(axis=(1, 2, 3))


class TestPkbSearch:
    def test_picks_quality_maximiser(self, layout):
        """With a quality that rewards total fill, PKB picks max target."""
        result = pkb_starting_point(layout, _totals, num_candidates=5)
        lo, hi = target_density_range(layout)
        np.testing.assert_allclose(result.targets, hi)
        assert result.candidates_evaluated == 5

    def test_picks_zero_when_fill_penalised(self, layout):
        result = pkb_starting_point(layout, lambda fills: -_totals(fills),
                                    num_candidates=5)
        assert result.fill.sum() == 0.0

    def test_quadratic_preference_interior(self, layout):
        """Quality peaked at a mid fill level selects an interior target."""
        slack_total = layout.slack_stack().sum()
        target_fill = 0.5 * slack_total

        def quality(fills):
            return -np.abs(_totals(fills) - target_fill)

        result = pkb_starting_point(layout, quality, num_candidates=9)
        assert 0.2 < result.fill.sum() / slack_total < 0.8

    def test_candidate_count_validation(self, layout):
        with pytest.raises(ValueError):
            pkb_starting_point(layout, lambda fills: np.zeros(len(fills)),
                               num_candidates=0)

    def test_scores_every_candidate_in_one_call(self, layout):
        calls = []

        def quality(fills):
            calls.append(fills.shape)
            return _totals(fills)

        pkb_starting_point(layout, quality, num_candidates=9)
        assert calls == [(9, *layout.shape)]

    def test_tie_picks_first_candidate(self, layout):
        """Equal best scores keep the earliest candidate, as the strict
        ``>`` scan of a candidate loop does."""
        lo, hi = target_density_range(layout)
        result = pkb_starting_point(
            layout, lambda fills: np.array([0.0, 1.0, 0.5, 1.0, 1.0]),
            num_candidates=5)
        assert result.quality == 1.0
        np.testing.assert_array_equal(result.targets, lo + 0.25 * (hi - lo))
        flat = pkb_starting_point(layout, lambda fills: np.zeros(len(fills)),
                                  num_candidates=5)
        np.testing.assert_array_equal(flat.targets, lo)

    def test_score_count_validated(self, layout):
        with pytest.raises(ValueError, match="5 scores"):
            pkb_starting_point(layout, lambda fills: np.zeros(3),
                               num_candidates=5)


class TestPlanarityMetrics:
    def test_flat_stack(self):
        h = np.ones((2, 4, 4))
        dh, sigma, line, ol = planarity_metrics(h)
        assert dh == 0.0 and sigma == 0.0 and line == 0.0 and ol == 0.0

    def test_delta_h_is_max_layer_range(self):
        h = np.zeros((2, 3, 3))
        h[0, 0, 0] = 5.0
        h[1, 0, 0] = 3.0
        dh, _, _, _ = planarity_metrics(h)
        assert dh == 5.0


class TestEvaluateSolution:
    def test_scores_in_range(self, small_problem, simulator):
        fill = 0.5 * small_problem.layout.slack_stack()
        s = evaluate_solution(small_problem, fill, "test", simulator,
                              runtime_s=1.0, memory_gb=0.5)
        for attr in ("score_performance", "score_fill", "score_variation",
                     "score_line", "score_outliers", "score_filesize",
                     "score_runtime", "score_memory", "quality", "overall"):
            value = getattr(s, attr)
            assert 0.0 <= value <= 1.0, attr

    def test_runtime_memory_affect_overall_not_quality(self, small_problem, simulator):
        fill = np.zeros(small_problem.layout.shape)
        fast = evaluate_solution(small_problem, fill, "f", simulator, runtime_s=0.0)
        slow = evaluate_solution(small_problem, fill, "s", simulator,
                                 runtime_s=1e9, memory_gb=1e9)
        assert fast.quality == pytest.approx(slow.quality)
        assert fast.overall > slow.overall

    def test_quality_normalised_vs_overall(self, small_problem, simulator):
        fill = np.zeros(small_problem.layout.shape)
        s = evaluate_solution(small_problem, fill, "x", simulator)
        c = small_problem.coefficients
        weighted = (
            c.alpha_overlay * s.score_performance + c.alpha_fill * s.score_fill
            + c.alpha_sigma * s.score_variation + c.alpha_line * s.score_line
            + c.alpha_outlier * s.score_outliers
        )
        assert s.quality == pytest.approx(weighted / c.quality_alpha_total)

    def test_precomputed_result_used(self, small_problem, simulator):
        fill = np.zeros(small_problem.layout.shape)
        res = simulator.simulate_layout(small_problem.layout, fill)
        s1 = evaluate_solution(small_problem, fill, "x", cmp_result=res)
        s2 = evaluate_solution(small_problem, fill, "x", simulator=simulator)
        assert s1.delta_h == pytest.approx(s2.delta_h)

    def test_batch_result_rejected(self, simulator):
        """A whole ``simulate_batch`` result is not one layout's: its
        batch axis would be read as layers and score silently wrong."""
        layout = make_design_a(rows=6, cols=6)
        problem = FillProblem(layout, ScoreCoefficients())
        fill = 0.5 * problem.upper
        batch = simulator.simulate_batch([apply_fill(layout, fill)] * 4)
        with pytest.raises(ValueError) as err:
            evaluate_solution(problem, fill, "x", cmp_result=batch)
        assert "(4, 3, 6, 6)" in str(err.value)
        assert "(3, 6, 6)" in str(err.value)
        entry = evaluate_solution(problem, fill, "x",
                                  cmp_result=batch.entry(0))
        solo = evaluate_solution(problem, fill, "x", simulator=simulator)
        assert entry.quality == solo.quality

    def test_output_file_grows_with_fill(self, layout):
        fill = 0.5 * layout.slack_stack()
        out = estimate_output_file_mb(layout, fill)
        assert out > layout.file_size_mb
        assert estimate_output_file_mb(layout, np.zeros(layout.shape)) == pytest.approx(
            layout.file_size_mb
        )
