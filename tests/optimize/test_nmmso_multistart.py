"""Tests for the NMMSO multi-modal optimiser and multi-start helpers."""

import numpy as np
import pytest

from repro.optimize import (
    Nmmso,
    SqpOptimizer,
    best_result,
    random_starting_points,
    refine_starting_points,
)


def two_peaks(x):
    """1-D bimodal: peaks near 0.2 (h=1.0) and 0.8 (h=0.7)."""
    x = float(np.ravel(x)[0])
    return (
        1.0 * np.exp(-((x - 0.2) ** 2) / 0.006)
        + 0.7 * np.exp(-((x - 0.8) ** 2) / 0.006)
    )


def four_peaks_2d(x):
    x = np.ravel(x)
    centers = [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)]
    heights = [1.0, 0.9, 0.8, 0.7]
    return sum(
        h * np.exp(-((x[0] - cx) ** 2 + (x[1] - cy) ** 2) / 0.01)
        for (cx, cy), h in zip(centers, heights)
    )


def rows(fun):
    """NMMSO's batched objective from a scalar one, row by row."""
    return lambda xs: np.array([fun(x) for x in xs])


class TestNmmso:
    def test_finds_global_peak_1d(self):
        opt = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                    max_evaluations=800, seed=0)
        res = opt.run()
        assert res.best.value == pytest.approx(1.0, abs=0.05)
        assert abs(float(res.best.x[0]) - 0.2) < 0.05

    def test_finds_both_peaks_1d(self):
        opt = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                    max_evaluations=1500, merge_distance=0.08, seed=1)
        res = opt.run()
        xs = [float(o.x[0]) for o in res.optima if o.value > 0.3]
        assert any(abs(x - 0.2) < 0.08 for x in xs)
        assert any(abs(x - 0.8) < 0.08 for x in xs)

    def test_finds_multiple_peaks_2d(self):
        opt = Nmmso(rows(four_peaks_2d), np.zeros(2), np.ones(2),
                    max_evaluations=4000, merge_distance=0.1, seed=2)
        res = opt.run()
        found = 0
        for cx, cy in [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)]:
            if any(
                np.hypot(float(o.x[0]) - cx, float(o.x[1]) - cy) < 0.12
                and o.value > 0.3
                for o in res.optima
            ):
                found += 1
        assert found >= 3

    def test_respects_budget(self):
        opt = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                    max_evaluations=100)
        res = opt.run()
        assert res.evaluations == 100  # every probe checks the budget

    def test_optima_sorted_descending(self):
        opt = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                    max_evaluations=500)
        res = opt.run()
        values = [o.value for o in res.optima]
        assert values == sorted(values, reverse=True)

    def test_degenerate_dimensions_pinned(self):
        lo = np.array([0.0, 0.5])
        hi = np.array([1.0, 0.5])
        opt = Nmmso(rows(lambda x: two_peaks(x[:1])), lo, hi,
                    max_evaluations=300)
        res = opt.run()
        for o in res.optima:
            assert o.x[1] == pytest.approx(0.5)

    def test_deterministic_for_seed(self):
        r1 = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                   max_evaluations=300, seed=7).run()
        r2 = Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                   max_evaluations=300, seed=7).run()
        assert r1.best.value == r2.best.value
        np.testing.assert_allclose(r1.best.x, r2.best.x)

    def test_validation(self):
        with pytest.raises(ValueError):
            Nmmso(rows(two_peaks), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError):
            Nmmso(rows(two_peaks), np.zeros(1), np.ones(1),
                  max_evaluations=0)
        with pytest.raises(ValueError):
            Nmmso(rows(two_peaks), np.zeros(2), np.ones(3))
        with pytest.raises(ValueError):
            Nmmso(rows(two_peaks), np.ones(2), np.ones(2))  # fully degenerate


class TestMultistart:
    def test_random_points_feasible(self):
        lo = np.zeros((2, 3))
        hi = np.full((2, 3), 5.0)
        pts = random_starting_points(lo, hi, 10, seed=0)
        assert len(pts) == 10
        for p in pts:
            assert p.shape == (2, 3)
            assert np.all(p >= lo) and np.all(p <= hi)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            random_starting_points(np.zeros(1), np.ones(1), 0)

    def test_refine_and_best(self):
        def fun(x):
            return two_peaks(x), np.array(
                [(two_peaks(x + 1e-6) - two_peaks(x - 1e-6)) / 2e-6]
            )

        starts = [np.array([0.1]), np.array([0.9])]
        results = refine_starting_points(
            fun, starts, np.zeros(1), np.ones(1),
            optimizer=SqpOptimizer(max_iter=50, tol=1e-8),
        )
        assert len(results) == 2
        # Each start converges to its own basin.
        assert abs(float(results[0].x[0]) - 0.2) < 0.02
        assert abs(float(results[1].x[0]) - 0.8) < 0.02
        best = best_result(results)
        assert best is results[0]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            refine_starting_points(lambda x: (0.0, x), [], np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            best_result([])
