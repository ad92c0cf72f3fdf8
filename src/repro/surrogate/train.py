"""UNet pre-training (Eq. 20) and accuracy evaluation (Section V-A, Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import rng_from_seed
from ..layout.layout import Layout
from ..nn.capture import CapturedGraph
from ..nn.dispatch import ScratchPool
from ..nn.loss import mse_loss
from ..nn.modules import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.unet import UNet
from ..obs import trace as obs_trace
from .datagen import SurrogateDataset, build_dataset
from .extraction import NUM_FEATURE_CHANNELS
from .network import CmpNeuralNetwork, HeightNormalizer


@dataclass
class TrainConfig:
    """Hyper-parameters of surrogate pre-training.

    The paper trains for 20 epochs on 20 000 samples (32 GPU-hours); the
    defaults here are scaled for a CPU run — override for higher fidelity.

    ``variance_weight`` adds a per-map variance-matching term to the
    Eq. 20 MSE.  An underfit network regresses toward the mean and
    underpredicts the height variance of rough profiles — precisely the
    quantity the sigma objective needs; the extra term counteracts that
    bias at negligible cost.  Set to 0 for the literal Eq. 20 objective.
    """

    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 2e-3
    seed: int = 0
    shuffle: bool = True
    variance_weight: float = 0.5


@dataclass
class TrainHistory:
    """Per-epoch mean training loss."""

    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no epochs recorded")
        return self.losses[-1]


def _loss_graph(unet: Module, variance_weight: float):
    """The Eq. 20 training loss of one batch, as a capture build."""

    def build(tensors: dict[str, Tensor]) -> dict[str, Tensor]:
        pred = unet(tensors["x"])
        target = tensors["y"]
        loss = mse_loss(pred, target)
        if variance_weight > 0:
            pred_var = pred.var(axis=(2, 3))
            target_var = target.var(axis=(2, 3))
            mismatch = pred_var - target_var
            loss = loss + (mismatch * mismatch).mean() * variance_weight
        return {"loss": loss}

    return build


def train_unet(unet: Module, dataset: SurrogateDataset,
               config: TrainConfig | None = None) -> TrainHistory:
    """Minimise the Eq. 20 MSE objective with Adam mini-batches.

    Each batch shape (the full batch and an epoch's remainder) traces
    one parameter-gradient :class:`~repro.nn.capture.CapturedGraph`, a
    training step in eager mode; later steps copy their batch in and
    replay forward and backward, which hands Adam the eager gradients
    bit for bit.  The plans share one scratch pool.
    """
    config = config or TrainConfig()
    if config.epochs <= 0 or config.batch_size <= 0:
        raise ValueError("epochs and batch_size must be positive")
    X = dataset.flat_inputs()
    Y = dataset.flat_targets()
    n = X.shape[0]
    rng = rng_from_seed(config.seed)
    optimizer = Adam(unet.parameters(), lr=config.learning_rate)
    history = TrainHistory()
    build = _loss_graph(unet, config.variance_weight)
    pool = ScratchPool()
    plans: dict[int, CapturedGraph] = {}
    unet.train()
    with obs_trace.span("train.fit", cat="train", samples=int(n),
                        epochs=config.epochs, batch_size=config.batch_size):
        for epoch in range(config.epochs):
            with obs_trace.span("train.epoch", cat="train", epoch=epoch):
                order = rng.permutation(n) if config.shuffle else np.arange(n)
                epoch_losses = []
                for start in range(0, n, config.batch_size):
                    idx = order[start : start + config.batch_size]
                    batch = {"x": X[idx], "y": Y[idx]}
                    optimizer.zero_grad()
                    plan = plans.get(len(idx))
                    if plan is None:
                        plans[len(idx)] = plan = CapturedGraph.trace(
                            build, batch, root="loss", param_grads=True,
                            pool=pool)
                    else:
                        plan.replay(batch)
                    optimizer.step()
                    epoch_losses.append(plan.outputs["loss"].item())
                epoch_loss = float(np.mean(epoch_losses))
                history.losses.append(epoch_loss)
                obs_trace.event("train.epoch_loss", cat="train",
                                epoch=epoch, loss=epoch_loss,
                                batches=len(epoch_losses))
    unet.eval()
    return history


@dataclass
class AccuracyReport:
    """Section V-A accuracy numbers against the teacher simulator.

    Attributes:
        mean_relative_error: average of ``|pred - sim| / |sim|`` over all
            windows/samples (the paper reports 0.6% on its test set).
        max_window_relative_error: worst per-window average (paper: 1.77%).
        per_window_error: ``(N, M)`` map of per-window average relative
            error — the data behind Fig. 9.
    """

    mean_relative_error: float
    max_window_relative_error: float
    per_window_error: np.ndarray

    def error_histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Fig. 9: distribution of per-window average relative error."""
        return np.histogram(self.per_window_error.ravel(), bins=bins)

    def fraction_below(self, threshold: float) -> float:
        """E.g. the paper's 'below 1.3% in 90% of the windows'."""
        errs = self.per_window_error.ravel()
        return float(np.mean(errs < threshold))


def evaluate_accuracy(unet: Module, dataset: SurrogateDataset) -> AccuracyReport:
    """Relative height error of the surrogate on a labelled dataset."""
    unet.eval()
    X = dataset.flat_inputs()
    Y = dataset.flat_targets()
    norm = dataset.normalizer
    rel_errors = []
    for start in range(0, X.shape[0], 16):
        batch = slice(start, start + 16)
        pred = unet(Tensor(X[batch])).data
        pred_h = norm.denormalize_array(pred)
        true_h = norm.denormalize_array(Y[batch])
        rel_errors.append(np.abs(pred_h - true_h) / np.maximum(np.abs(true_h), 1e-9))
    rel = np.concatenate(rel_errors)  # (n*L, 1, N, M)
    per_window = rel.mean(axis=(0, 1))
    return AccuracyReport(
        mean_relative_error=float(rel.mean()),
        max_window_relative_error=float(per_window.max()),
        per_window_error=per_window,
    )


def pretrain_surrogate(
    sources: list[Layout],
    target_layout: Layout,
    sample_count: int = 24,
    tile_rows: int = 24,
    tile_cols: int = 24,
    base_channels: int = 8,
    depth: int = 2,
    config: TrainConfig | None = None,
    simulator=None,
    seed: int = 0,
) -> tuple[CmpNeuralNetwork, TrainHistory, AccuracyReport]:
    """One-call pipeline: dataset -> UNet -> pre-train -> bind to a layout.

    Defaults are CPU-scale; raise ``sample_count``/``config.epochs`` for
    paper-scale fidelity.  Returns the bound CMP neural network, the
    training history and the held-out accuracy report.
    """
    with obs_trace.span("train.dataset", cat="train",
                        samples=sample_count,
                        tiles=[tile_rows, tile_cols]):
        dataset = build_dataset(
            sources, sample_count, tile_rows, tile_cols,
            simulator=simulator, seed=seed,
        )
    train_set, test_set = dataset.split(test_fraction=0.2, seed=seed)
    unet = UNet(
        in_channels=NUM_FEATURE_CHANNELS, out_channels=1,
        base_channels=base_channels, depth=depth, rng=seed,
    )
    history = train_unet(unet, train_set, config)
    with obs_trace.span("train.evaluate", cat="train"):
        report = evaluate_accuracy(unet, test_set)
    obs_trace.event("train.accuracy", cat="train",
                    mean_relative_error=report.mean_relative_error,
                    max_window_relative_error=report.max_window_relative_error)
    network = CmpNeuralNetwork(target_layout, unet, dataset.normalizer)
    return network, history, report
