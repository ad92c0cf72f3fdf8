"""Training-set construction for the UNet surrogate (paper Fig. 8 + Eq. 20).

Pipeline per sample: two-step random layout (window re-assembly + random
legal fill) -> extraction-layer feature planes -> full-chip CMP simulation
-> normalised height label.

Sample *generation* (assembly + random fill) is cheap and RNG-driven;
sample *labelling* (the teacher CMP simulation) is expensive and fully
deterministic.  :func:`build_dataset` draws every layout from the one
seeded RNG stream, then labels them in micro-batches through the
batched simulator, which is bitwise identical to labelling them one by
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cmp.simulator import CmpSimulator
from ..config import rng_from_seed
from ..layout.assembly import generate_training_layouts
from ..layout.layout import Layout, apply_fill
from .extraction import ExtractionConstants, extract_parameter_matrix_numpy
from .network import HeightNormalizer


@dataclass
class SurrogateDataset:
    """Arrays ready for UNet training.

    Attributes:
        inputs: ``(n, L, C, N, M)`` feature planes per sample and layer.
        targets: ``(n, L, 1, N, M)`` normalised simulator heights.
        normalizer: the affine height normalisation used for ``targets``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    normalizer: HeightNormalizer

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs/targets sample count mismatch")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def flat_inputs(self) -> np.ndarray:
        """Merge (sample, layer) into one batch axis: ``(n*L, C, N, M)``."""
        n, L = self.inputs.shape[:2]
        return self.inputs.reshape(n * L, *self.inputs.shape[2:])

    def flat_targets(self) -> np.ndarray:
        n, L = self.targets.shape[:2]
        return self.targets.reshape(n * L, *self.targets.shape[2:])

    def split(self, test_fraction: float = 0.2,
              seed: int | None = 0) -> tuple["SurrogateDataset", "SurrogateDataset"]:
        """Random train/test split sharing the normalizer."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        n = len(self)
        rng = rng_from_seed(seed)
        order = rng.permutation(n)
        n_test = max(1, int(round(n * test_fraction)))
        test_idx, train_idx = order[:n_test], order[n_test:]
        if train_idx.size == 0:
            raise ValueError("split left no training samples")
        make = lambda idx: SurrogateDataset(
            self.inputs[idx], self.targets[idx], self.normalizer
        )
        return make(train_idx), make(test_idx)


def simulate_sample(layout: Layout, fill: np.ndarray,
                    simulator: CmpSimulator) -> tuple[np.ndarray, np.ndarray]:
    """One (features, physical heights) pair for an assembled layout."""
    consts = ExtractionConstants.from_layout(layout)
    features = extract_parameter_matrix_numpy(fill, consts)
    heights = simulator.simulate_layout(layout, fill).height
    return features, heights


def simulate_group(
    pairs: Sequence[tuple[Layout, np.ndarray]],
    simulator: CmpSimulator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Label a group of (layout, fill) pairs with one batched simulation.

    Assembled layouts share one grid and layer count, so the group's
    feature stacks batch into a single
    :meth:`~repro.cmp.simulator.CmpSimulator.simulate_batch` call —
    bitwise identical heights to per-pair :func:`simulate_sample`, one
    polish loop instead of ``len(pairs)``.  A single-pair group takes
    the solo path directly.
    """
    if len(pairs) == 1:
        layout, fill = pairs[0]
        return [simulate_sample(layout, fill, simulator)]
    feats = [
        extract_parameter_matrix_numpy(
            fill, ExtractionConstants.from_layout(layout))
        for layout, fill in pairs
    ]
    stacks = [apply_fill(layout, fill) for layout, fill in pairs]
    result = simulator.simulate_batch(stacks)
    return [(feats[k], result.height[k]) for k in range(len(pairs))]


def build_dataset(
    sources: list[Layout],
    count: int,
    rows: int,
    cols: int,
    simulator: CmpSimulator | None = None,
    seed: int = 0,
    normalizer: HeightNormalizer | None = None,
    sim_batch: int = 8,
) -> SurrogateDataset:
    """Generate ``count`` labelled samples via the two-step procedure.

    Args:
        sources: layouts whose windows seed the assembly pool (the paper
            uses its three designs).
        count: number of assembled layouts.
        rows / cols: network input size in windows (paper: 100x100).
        simulator: teacher simulator (default calibration if omitted).
        seed: RNG seed for assembly and fills.
        normalizer: reuse an existing normalisation (e.g. the training
            set's) instead of fitting one — required for a comparable
            test/extension set.
        sim_batch: layouts per batched teacher simulation (micro-batch).
            ``1`` disables batching.  The batched simulator is bitwise
            identical to the solo one, so the dataset is byte-identical
            for every ``sim_batch``.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if sim_batch < 1:
        raise ValueError(f"sim_batch must be >= 1, got {sim_batch}")
    simulator = simulator or CmpSimulator()
    pairs = generate_training_layouts(sources, count, rows, cols, seed=seed)
    groups = [pairs[i : i + sim_batch] for i in range(0, len(pairs), sim_batch)]
    grouped = [simulate_group(group, simulator) for group in groups]
    results = [pair for group in grouped for pair in group]
    feats = [f for f, _ in results]
    heights = [h for _, h in results]
    inputs = np.stack(feats)  # (n, L, C, N, M)
    raw = np.stack(heights)  # (n, L, N, M)
    if normalizer is None:
        normalizer = HeightNormalizer.fit(raw)
    targets = normalizer.normalize(raw)[:, :, None, :, :]
    return SurrogateDataset(inputs=inputs, targets=targets, normalizer=normalizer)
