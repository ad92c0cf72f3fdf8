"""Batched teacher-data generation must be byte-identical to unbatched.

Layout assembly draws from the one seeded RNG stream; only the
deterministic simulations are grouped, so any micro-batch size yields
the exact same dataset.
"""

import numpy as np
import pytest

from repro.layout import make_design_a, make_design_b
from repro.surrogate import build_dataset


@pytest.fixture(scope="module")
def sources():
    return [make_design_a(rows=10, cols=10), make_design_b(rows=10, cols=10)]


class TestBatchedBuildDataset:
    """Micro-batched teacher simulation is byte-identical to unbatched —
    the batched simulator contract, observed end to end."""

    def test_byte_identical_across_sim_batch(self, sources):
        base = build_dataset(sources, count=5, rows=8, cols=8, seed=4,
                             sim_batch=1)
        for sim_batch in (2, 5, 8):
            batched = build_dataset(sources, count=5, rows=8, cols=8,
                                    seed=4, sim_batch=sim_batch)
            assert base.inputs.tobytes() == batched.inputs.tobytes()
            assert base.targets.tobytes() == batched.targets.tobytes()
            assert base.normalizer == batched.normalizer

    def test_invalid_sim_batch_rejected(self, sources):
        with pytest.raises(ValueError):
            build_dataset(sources, count=2, rows=8, cols=8, sim_batch=0)
