"""Batch invariance: a row of a stacked surrogate pass is the solo pass.

No inference op mixes the rows of a stack.  Eval-mode batch norm reads
running statistics, every objective reduction is per row, and the batch
axis is a broadcast axis of the shifted-GEMM ``np.matmul`` and a free
GEMM axis of the 1x1 ``tensordot``.  So row ``k`` of every
``evaluate_batch`` equals ``evaluate`` on that fill bit for bit,
whatever the stack size and whichever rows want gradients.  Coalesced
serving, lockstep MSP-SQP and NMMSO's stacked probes all rely on it.  A
BLAS build that broke it would have to loop the offending op over the
batch axis; this test is not to be loosened.
"""

import numpy as np
import pytest

from repro.core import FillProblem, QualityModel, ScoreCoefficients
from repro.core.msp_sqp import PROBE_STACK
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityWeights,
)

WEIGHTS = PlanarityWeights(0.2, 100.0, 0.2, 1000.0, 0.15, 10.0)
GRIDS = (("A", 13, 7), ("A", 1, 9), ("B", 17, 11), ("C", 9, 20),
         ("A", 10, 10), ("C", 12, 12))
MAX_K = 16


def network(design, rows, cols, capture):
    layout = DESIGN_BUILDERS[design](rows=rows, cols=cols, seed=3)
    unet = UNet(NUM_FEATURE_CHANNELS, 1, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0),
                            capture=capture)


def cases():
    for design, rows, cols in GRIDS:
        for capture in (True, False):
            yield pytest.param(design, rows, cols, capture,
                               id=f"{design}{rows}x{cols}-capture{capture}")


@pytest.mark.parametrize("design,rows,cols,capture", cases())
def test_stack_rows_are_solo_passes(design, rows, cols, capture):
    net = network(design, rows, cols, capture)
    rng = np.random.default_rng(rows * 100 + cols)
    slack = net.layout.slack_stack()
    fills = rng.random((MAX_K, *slack.shape)) * slack
    solo = [net.evaluate(fill, WEIGHTS) for fill in fills]
    for K in range(1, MAX_K + 1):
        rows_k = rng.permutation(MAX_K)[:K]
        mask = rng.random(K) < 0.5
        batch = net.evaluate_batch(fills[rows_k], WEIGHTS, grad_mask=mask)
        for k, row in enumerate(rows_k):
            assert batch.s_plan[k] == solo[row].s_plan, (K, k)
            assert batch.breakdowns[k] == solo[row].breakdown, (K, k)
            assert np.array_equal(batch.heights[k], solo[row].heights), (K, k)
            if not mask.any():
                assert batch.gradient is None
            elif mask[k]:
                assert np.array_equal(batch.gradient[k],
                                      solo[row].gradient), (K, k)
            else:
                assert not batch.gradient[k].any(), (K, k)


@pytest.mark.parametrize("capture", [True, False])
def test_quality_rows_is_quality_per_row(capture):
    net = network("C", 12, 12, capture)
    model = QualityModel(FillProblem(net.layout, ScoreCoefficients()), net)
    rng = np.random.default_rng(9)
    slack = net.layout.slack_stack()
    # Some entries leave the box, so clipping is exercised too.
    fills = (rng.random((9, *slack.shape)) * 1.2 - 0.1) * slack
    for P in range(1, 10):
        before = model.evaluations
        got = model.quality_rows(fills[:P])
        assert model.evaluations == before + P
        assert got.shape == (P,)
        assert got.tolist() == [model.quality(fill) for fill in fills[:P]]
    if capture:
        # Stacks of PROBE_STACK rows and a row-by-row remainder: one plan
        # shape beside the single-fill plan, whatever the row count.
        assert {key[1][0][0] for key in net._plans} == {1, PROBE_STACK}
