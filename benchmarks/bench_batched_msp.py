"""Batched multi-start refinement speedup.

MSP-SQP with K starts: an explicit start-by-start
``SqpOptimizer.maximize`` loop vs ``msp_sqp``'s lockstep broker, which
services every round with one stacked network pass and answers a start's
gradient request at its just-evaluated point from that round's all-row
backward sweep (so it runs fewer network rows than the loop when starts
are out of phase).  Both are result-identical (see DESIGN.md
"Batching").

Results go to ``benchmarks/output/batched_msp.txt`` and, machine-readable,
to ``BENCH_batched_msp.json`` at the repo root.  The speedup depends on
grid size and host (batching amortises per-layer Python overhead and
pays off even on one core), so the JSON records the core count alongside
the timings.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import write_output
from repro.core import FillProblem, QualityModel, ScoreCoefficients, msp_sqp
from repro.cmp import CmpSimulator
from repro.layout import make_design_a
from repro.nn import UNet
from repro.optimize import SqpOptimizer, random_starting_points_stacked
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_batched_msp.json"

MSP_GRID = 16
NUM_STARTS = 8
SQP_ITERS = 6


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_batched_msp(benchmark):
    # Untrained weights time identically to trained ones, so skip the
    # expensive pretraining and build the setup directly.
    layout = make_design_a(rows=MSP_GRID, cols=MSP_GRID)
    simulator = CmpSimulator()
    coeffs = ScoreCoefficients.calibrated(layout, simulator)
    problem = FillProblem(layout, coeffs)
    unet = UNet(in_channels=NUM_FEATURE_CHANNELS, out_channels=1,
                base_channels=8, depth=2, rng=0)
    network = CmpNeuralNetwork(layout, unet, HeightNormalizer(6000.0, 40.0))
    starts = random_starting_points_stacked(
        problem.lower, problem.upper, NUM_STARTS, seed=0
    )
    opt = SqpOptimizer(max_iter=SQP_ITERS, tol=1e-12)

    def run_loop():
        model = QualityModel(problem, network)
        results = [opt.maximize(model.value_and_grad, start, problem.lower,
                                problem.upper, fun_value=model.quality)
                   for start in starts]
        return results, model.evaluations

    def run_lockstep():
        model = QualityModel(problem, network)
        outcome = msp_sqp(model, starts, opt)
        return outcome.results, outcome.evaluations

    (seq_results, seq_evals), seq_s = _timed(run_loop)
    (bat_results, bat_evals), bat_s = benchmark.pedantic(
        lambda: _timed(run_lockstep), rounds=1, iterations=1)
    seq = max(seq_results, key=lambda r: r.value)
    bat = max(bat_results, key=lambda r: r.value)
    fill_diff = float(np.max(np.abs(seq.x - bat.x)))
    # Per start: same SQP path (iteration and request counts, objective
    # curve) and the same refined point, up to the BLAS batch-size ulp.
    start_diff = max(
        max(float(np.max(np.abs(a.x - b.x))), abs(a.value - b.value),
            float(np.max(np.abs(np.subtract(a.history, b.history)))))
        for a, b in zip(seq_results, bat_results))
    same_paths = all(
        a.iterations == b.iterations and a.evaluations == b.evaluations
        and len(a.history) == len(b.history)
        for a, b in zip(seq_results, bat_results))
    # Every SQP request the lockstep answered without a network row.
    grad_cache_hits = sum(r.evaluations for r in bat_results) - bat_evals
    msp_speedup = seq_s / bat_s

    report = {
        "cpu_count": os.cpu_count(),
        "msp_sqp": {
            "grid": [MSP_GRID, MSP_GRID],
            "starts": NUM_STARTS,
            "sqp_max_iter": SQP_ITERS,
            "sequential_s": round(seq_s, 4),
            "batched_s": round(bat_s, 4),
            "speedup": round(msp_speedup, 2),
            "best_fill_max_abs_diff": fill_diff,
            "per_start_max_abs_diff": start_diff,
            "sequential_evaluations": seq_evals,
            "batched_evaluations": bat_evals,
            "grad_cache_hits": grad_cache_hits,
        },
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    text = (
        f"Batched MSP-SQP ({NUM_STARTS} starts, {MSP_GRID}x{MSP_GRID}, "
        f"{SQP_ITERS} SQP iters): sequential {seq_s:.2f}s, batched "
        f"{bat_s:.2f}s — {msp_speedup:.1f}x, "
        f"best-fill max |diff| {fill_diff:.2e}, network rows "
        f"{seq_evals} -> {bat_evals} ({grad_cache_hits} cached gradients), "
        f"{os.cpu_count()} cores"
    )
    write_output("batched_msp", text)

    # Correctness is asserted; the speedup is recorded, not asserted
    # beyond > 1, since it depends on the host (BLAS threading).
    assert fill_diff < 1e-8
    assert same_paths
    assert start_diff < 1e-8
    assert bat_evals <= seq_evals
    # Batching amortises per-call overhead even on one core.
    assert msp_speedup > 1.0
