"""Integration tests for QualityModel, MSP-SQP and the NeurFill facade."""

import numpy as np
import pytest

from repro.core import NeurFill, QualityModel, msp_sqp
from repro.optimize import SqpOptimizer


@pytest.fixture(scope="module")
def model(small_problem, trained_surrogate):
    return QualityModel(small_problem, trained_surrogate)


class TestQualityModel:
    def test_evaluation_components(self, model, small_problem):
        ev = model.evaluate(np.zeros(small_problem.layout.shape))
        assert np.isfinite(ev.quality)
        assert ev.quality == pytest.approx(
            ev.planarity.s_plan + ev.degradation.s_pd
        )
        assert ev.gradient.shape == small_problem.layout.shape

    def test_counts_evaluations(self, model, small_problem):
        before = model.evaluations
        model.quality(np.zeros(small_problem.layout.shape))
        model.value_and_grad(np.zeros(small_problem.layout.shape))
        assert model.evaluations == before + 2

    def test_gradient_none_without_request(self, model, small_problem):
        ev = model.evaluate(np.zeros(small_problem.layout.shape),
                            want_grad=False)
        assert ev.gradient is None

    def test_backprop_matches_fd_on_quality(self, model, small_problem):
        """The combined quality gradient (surrogate backprop + analytic
        PD) must match finite differences through the full model."""
        rng = np.random.default_rng(0)
        x0 = 0.4 * small_problem.upper
        value, grad = model.value_and_grad(x0)
        eps = 1.0
        for _ in range(4):
            k = rng.integers(0, x0.size)
            hi = x0.ravel().copy(); hi[k] += eps
            lo = x0.ravel().copy(); lo[k] -= eps
            fd = (model.quality(hi.reshape(x0.shape))
                  - model.quality(lo.reshape(x0.shape))) / (2 * eps)
            assert grad.ravel()[k] == pytest.approx(fd, rel=1e-2, abs=1e-9)


class TestMspSqp:
    def test_improves_over_starts(self, model, small_problem):
        rng = np.random.default_rng(1)
        starts = [rng.random(small_problem.layout.shape) * small_problem.upper
                  for _ in range(2)]
        start_q = max(model.quality(s) for s in starts)
        outcome = msp_sqp(model, starts, SqpOptimizer(max_iter=30, tol=1e-9))
        assert outcome.best_quality >= start_q - 1e-9
        assert len(outcome.results) == 2
        assert outcome.evaluations > 0

    def test_empty_starts_rejected(self, model):
        with pytest.raises(ValueError):
            msp_sqp(model, [])

    def test_best_fill_feasible(self, model, small_problem):
        outcome = msp_sqp(model, [np.zeros(small_problem.layout.shape)],
                          SqpOptimizer(max_iter=10, tol=1e-9))
        assert small_problem.feasible(outcome.best_fill, atol=1e-6)


class TestNeurFill:
    @pytest.fixture(scope="class")
    def neurfill(self, small_problem, trained_surrogate, simulator):
        return NeurFill(
            small_problem, trained_surrogate,
            optimizer=SqpOptimizer(max_iter=25, tol=1e-9),
            simulator=simulator,
        )

    def test_pkb_run(self, neurfill, small_problem):
        result = neurfill.run_pkb(num_candidates=5)
        assert result.method == "neurfill-pkb"
        assert small_problem.feasible(result.fill, atol=1e-6)
        assert result.runtime_s > 0
        assert result.evaluations > 0
        assert "pkb_targets" in result.extras
        assert result.planarity is not None
        assert result.degradation is not None

    def test_pkb_refinement_never_regresses(self, neurfill, small_problem,
                                            simulator):
        """With a simulator attached, the returned fill is at least as
        good as the PKB starting point under the simulator's judgement
        (the refine-vs-start guard)."""
        from repro.core import evaluate_solution
        from repro.core.pkb import pkb_starting_point

        result = neurfill.run_pkb(num_candidates=5)
        start = pkb_starting_point(
            small_problem.layout,
            lambda fills: np.array([
                evaluate_solution(small_problem, x, "probe",
                                  simulator=simulator).quality
                for x in fills]),
            5,
        )
        final_q = evaluate_solution(small_problem, result.fill, "final",
                                    simulator=simulator).quality
        assert final_q >= start.quality - 1e-9

    def test_multimodal_run(self, neurfill, small_problem):
        result = neurfill.run_multimodal(max_evaluations=120, top_k=2, seed=0)
        assert result.method == "neurfill-mm"
        assert small_problem.feasible(result.fill, atol=1e-6)
        assert result.starts == 2
        assert result.extras["nmmso_optima"] >= 1
        assert len(result.extras["refined_qualities"]) == 2

    def test_multimodal_include_pkb(self, neurfill):
        result = neurfill.run_multimodal(max_evaluations=80, top_k=1,
                                         include_pkb=True, seed=1)
        assert result.starts == 2

    def test_run_from_start(self, neurfill, small_problem):
        start = 0.5 * small_problem.upper
        result = neurfill.run_from_start(start, method="custom")
        assert result.method == "custom"
        assert result.quality >= 0

    def test_improves_quality_over_nofill(self, neurfill, small_problem, simulator):
        """The headline behaviour: synthesis beats no fill on the real
        simulator's quality score."""
        from repro.core import evaluate_solution
        result = neurfill.run_pkb(num_candidates=7)
        filled = evaluate_solution(small_problem, result.fill, "f", simulator)
        empty = evaluate_solution(
            small_problem, np.zeros(small_problem.layout.shape), "e", simulator
        )
        assert filled.quality > empty.quality
