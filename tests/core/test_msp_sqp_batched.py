"""Lockstep MSP-SQP vs an explicit start-by-start ``maximize`` loop.

The lockstep broker must be a pure wall-clock optimisation: same
clipping, same per-start SQP mathematics, same refined fills bit for
bit — only the network passes are stacked.
"""

import numpy as np
import pytest

from repro.core import QualityModel, msp_sqp
from repro.optimize import SqpOptimizer, random_starting_points_stacked


@pytest.fixture(scope="module")
def model(small_problem, trained_surrogate):
    return QualityModel(small_problem, trained_surrogate)


@pytest.fixture(scope="module")
def starts(small_problem):
    return random_starting_points_stacked(
        small_problem.lower, small_problem.upper, 3, seed=4
    )


class TestEvaluateMany:
    def test_rows_match_sequential_evaluate(self, model, starts):
        values, grads = model.evaluate_many(starts)
        for k in range(starts.shape[0]):
            single = model.evaluate(starts[k])
            assert values[k] == single.quality
            np.testing.assert_array_equal(grads[k], single.gradient)

    def test_grad_mask(self, model, starts):
        mask = np.array([False, True, False])
        values, grads = model.evaluate_many(starts, need_grad=mask)
        assert np.all(grads[0] == 0.0) and np.all(grads[2] == 0.0)
        assert np.any(grads[1] != 0.0)
        assert np.all(np.isfinite(values))

    def test_counts_evaluations_per_row(self, model, starts):
        before = model.evaluations
        model.evaluate_many(starts, need_grad=False)
        assert model.evaluations == before + starts.shape[0]

    def test_rejects_unstacked(self, model, small_problem):
        with pytest.raises(ValueError):
            model.evaluate_many(np.zeros(small_problem.layout.shape))


class TestBatchedMspSqp:
    def test_same_best_fill_as_sequential(self, model, starts):
        opt = SqpOptimizer(max_iter=15, tol=1e-9)
        lower, upper = model.problem.lower, model.problem.upper
        seq = [opt.maximize(model.value_and_grad, start, lower, upper,
                            fun_value=model.quality) for start in starts]
        best = max(seq, key=lambda r: r.value)
        bat = msp_sqp(model, starts, opt)
        np.testing.assert_array_equal(bat.best_fill, best.x)
        assert bat.best_quality == best.value
        for a, b in zip(seq, bat.results):
            assert a.iterations == b.iterations
            assert a.converged == b.converged
            assert a.value == b.value

    def test_single_start_falls_back_to_sequential(self, model, starts):
        opt = SqpOptimizer(max_iter=5, tol=1e-9)
        outcome = msp_sqp(model, starts[:1], opt)
        assert len(outcome.results) == 1
        assert np.isfinite(outcome.best_quality)
        # One start runs SqpOptimizer.maximize on QualityModel.evaluate,
        # bitwise like a direct call.
        direct = opt.maximize(model.value_and_grad, starts[0],
                              model.problem.lower, model.problem.upper,
                              fun_value=model.quality)
        np.testing.assert_array_equal(outcome.best_fill, direct.x)
        assert outcome.best_quality == direct.value
