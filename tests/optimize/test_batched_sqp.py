"""Lockstep batched multi-start SQP vs the sequential driver.

The broker (:func:`refine_starting_points_batched`) must reproduce the
sequential results bitwise because both drive the same
:meth:`SqpOptimizer.maximize_steps` generators — these tests pin that
contract on analytic objectives, plus the stacked starting-point API.
"""

import numpy as np
import pytest

from repro.config import rng_from_seed
from repro.obs import trace as obs_trace
from repro.optimize import (
    SqpOptimizer,
    random_starting_points,
    random_starting_points_stacked,
    refine_starting_points,
    refine_starting_points_batched,
)


def quartic_value_grad(x):
    """Smooth multimodal 2-D objective with analytic gradient."""
    x = np.ravel(x)
    value = -np.sum((x - 0.3) ** 2 * (x - 0.7) ** 2)
    grad = -2 * (x - 0.3) * (x - 0.7) * (2 * x - 1.0)
    return float(value), grad


def quartic_batch(points, need_grad):
    """Row-wise batched oracle built from the sequential one."""
    K = points.shape[0]
    values = np.empty(K)
    grads = np.zeros_like(points)
    for k in range(K):
        v, g = quartic_value_grad(points[k])
        values[k] = v
        if need_grad[k]:
            grads[k] = g.reshape(points[k].shape)
    return values, grads


class TestBatchedBroker:
    def assert_results_identical(self, seq, bat):
        assert len(seq) == len(bat)
        for a, b in zip(seq, bat):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.value == b.value
            assert a.iterations == b.iterations
            assert a.evaluations == b.evaluations
            assert a.converged == b.converged
            assert a.history == b.history

    @pytest.mark.parametrize("hessian", ["lbfgs", "dense"])
    def test_matches_sequential_bitwise(self, hessian):
        lo, hi = np.zeros(2), np.ones(2)
        starts = random_starting_points(lo, hi, 6, seed=0)
        opt = SqpOptimizer(max_iter=40, tol=1e-10, hessian=hessian)
        seq = refine_starting_points(quartic_value_grad, starts, lo, hi, opt)
        bat = refine_starting_points_batched(quartic_batch, starts, lo, hi, opt)
        self.assert_results_identical(seq, bat)

    def test_mixed_convergence_dropout(self):
        """Starts converging at different iteration counts drop out of the
        batch without disturbing the still-live ones."""
        lo, hi = np.zeros(2), np.ones(2)
        # One start already at an optimum (instant convergence), others far.
        starts = [np.array([0.3, 0.3]), np.array([0.01, 0.99]),
                  np.array([0.55, 0.45])]
        opt = SqpOptimizer(max_iter=60, tol=1e-10)
        seq = refine_starting_points(quartic_value_grad, starts, lo, hi, opt)
        bat = refine_starting_points_batched(quartic_batch, starts, lo, hi, opt)
        self.assert_results_identical(seq, bat)
        assert seq[0].iterations < seq[1].iterations

    def test_stacked_array_input(self):
        lo, hi = np.zeros(3), np.ones(3)
        stacked = random_starting_points_stacked(lo, hi, 4, seed=2)
        bat = refine_starting_points_batched(quartic_batch, stacked, lo, hi,
                                             SqpOptimizer(max_iter=30, tol=1e-9))
        assert len(bat) == 4

    def test_single_start(self):
        lo, hi = np.zeros(2), np.ones(2)
        starts = [np.array([0.1, 0.9])]
        opt = SqpOptimizer(max_iter=40, tol=1e-10)
        seq = refine_starting_points(quartic_value_grad, starts, lo, hi, opt)
        bat = refine_starting_points_batched(quartic_batch, starts, lo, hi, opt)
        self.assert_results_identical(seq, bat)

    def test_batch_sizes_shrink_as_starts_finish(self):
        sizes = []

        def recording_batch(points, need_grad):
            sizes.append(points.shape[0])
            return quartic_batch(points, need_grad)

        lo, hi = np.zeros(2), np.ones(2)
        starts = [np.array([0.3, 0.3]), np.array([0.05, 0.95])]
        refine_starting_points_batched(recording_batch, starts, lo, hi,
                                       SqpOptimizer(max_iter=60, tol=1e-10))
        assert sizes[0] == 2
        assert sizes[-1] == 1  # the hard start outlives the easy one

    def test_gradient_cache_matches_per_start_loop_with_fewer_rows(self):
        """Starts at different SQP phases make rounds that mix gradient
        and line-search rows.  Such a round differentiates every row, and
        a start's gradient request at its accepted trial is answered from
        that row: same SqpResults as an explicit per-start ``maximize``
        loop (value-only oracle in the line search), strictly fewer
        oracle rows."""
        lo, hi = np.zeros(3), np.ones(3)
        starts = random_starting_points(lo, hi, 5, seed=4)
        opt = SqpOptimizer(max_iter=40, tol=1e-10)
        loop_calls = 0

        def counted(x):
            nonlocal loop_calls
            loop_calls += 1
            return quartic_value_grad(x)

        loop = [opt.maximize(counted, s, lo, hi,
                             fun_value=lambda x: counted(x)[0])
                for s in starts]

        masks = []

        def recording_batch(points, need_grad):
            masks.append(np.array(need_grad, dtype=bool))
            return quartic_batch(points, need_grad)

        with obs_trace.capture() as tracer:
            bat = refine_starting_points_batched(recording_batch, starts,
                                                 lo, hi, opt)
        self.assert_results_identical(loop, bat)
        assert all(m.all() or not m.any() for m in masks)
        rows = sum(m.size for m in masks)
        assert loop_calls == sum(r.evaluations for r in loop)
        assert rows < loop_calls
        (span,) = [r for r in tracer.records("span")
                   if r["name"] == "opt.multistart"]
        assert span["attrs"]["oracle_rows"] == rows
        assert span["attrs"]["grad_cache_hits"] == loop_calls - rows

    def test_value_only_round_gives_no_cached_gradient(self):
        """A round without gradient rows stores no gradient, so the next
        gradient request at that point still costs an oracle row."""
        calls = []

        def recording_batch(points, need_grad):
            calls.append((points.copy(), np.array(need_grad, dtype=bool)))
            return quartic_batch(points, need_grad)

        lo, hi = np.zeros(2), np.ones(2)
        refine_starting_points_batched(recording_batch, [np.array([0.1, 0.9])],
                                       lo, hi, SqpOptimizer(max_iter=5,
                                                            tol=1e-12))
        # One start: every round is a single row, value-only rounds are
        # line-search trials, and each accepted trial is re-requested
        # with its gradient in the following round.
        repeats = [np.array_equal(pa, pb)
                   for (pa, ma), (pb, mb) in zip(calls, calls[1:])
                   if not ma[0] and mb[0]]
        assert repeats and all(repeats)

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError):
            refine_starting_points_batched(
                quartic_batch, [], np.zeros(1), np.ones(1)
            )


class TestStackedStartingPoints:
    def test_matches_sequential_rng_stream(self):
        """One (K, *shape) draw consumes the stream exactly like K
        per-start draws, so old seeds keep producing the old points."""
        lo = np.zeros((2, 3))
        hi = np.full((2, 3), 5.0)
        stacked = random_starting_points_stacked(lo, hi, 5, seed=3)
        rng = rng_from_seed(3)
        for k in range(5):
            expected = lo + rng.random(lo.shape) * (hi - lo)
            np.testing.assert_array_equal(stacked[k], expected)

    def test_list_api_is_view_of_stacked(self):
        lo, hi = np.zeros(4), np.ones(4)
        stacked = random_starting_points_stacked(lo, hi, 3, seed=1)
        listed = random_starting_points(lo, hi, 3, seed=1)
        assert len(listed) == 3
        for k in range(3):
            np.testing.assert_array_equal(listed[k], stacked[k])

    def test_shape_and_feasibility(self):
        lo = np.zeros((2, 3))
        hi = np.full((2, 3), 5.0)
        stacked = random_starting_points_stacked(lo, hi, 7, seed=0)
        assert stacked.shape == (7, 2, 3)
        assert np.all(stacked >= lo) and np.all(stacked <= hi)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            random_starting_points_stacked(np.zeros(1), np.ones(1), 0)
