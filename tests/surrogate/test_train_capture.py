"""Surrogate training on captured replay: the eager checkpoint, bit for bit.

``train_unet`` traces one parameter-gradient plan per batch shape and
replays it for every later step.  The eager step loop below is the
reference it replaced; every checkpoint array (parameters *and*
batch-norm running statistics) and every epoch loss must equal the
loop's bitwise.
"""

import numpy as np
import pytest

from repro.config import rng_from_seed
from repro.layout import make_design_a, make_design_b, make_design_c
from repro.nn import UNet
from repro.nn.capture import CapturedGraph
from repro.nn.loss import mse_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.surrogate import NUM_FEATURE_CHANNELS
from repro.surrogate.datagen import build_dataset
from repro.surrogate.train import TrainConfig, _loss_graph, train_unet

DESIGNS = {"A": make_design_a, "B": make_design_b, "C": make_design_c}


def eager_train(unet, dataset, config):
    """The eager step loop: one autodiff graph built per step."""
    X = dataset.flat_inputs()
    Y = dataset.flat_targets()
    n = X.shape[0]
    rng = rng_from_seed(config.seed)
    optimizer = Adam(unet.parameters(), lr=config.learning_rate)
    losses = []
    unet.train()
    for _ in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            optimizer.zero_grad()
            pred = unet(Tensor(X[idx]))
            target = Tensor(Y[idx])
            loss = mse_loss(pred, target)
            if config.variance_weight > 0:
                mismatch = pred.var(axis=(2, 3)) - target.var(axis=(2, 3))
                loss = loss + (mismatch * mismatch).mean() \
                    * config.variance_weight
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    unet.eval()
    return losses


_DATASETS = {}


def train_set(design, grid, samples):
    """The training split ``pretrain_surrogate`` would use (seed 0)."""
    key = (design, grid, samples)
    if key not in _DATASETS:
        layout = DESIGNS[design](rows=grid, cols=grid)
        dataset = build_dataset([layout], samples, grid, grid, seed=0)
        _DATASETS[key] = dataset.split(test_fraction=0.2, seed=0)[0]
    return _DATASETS[key]


def checkpoint_bytes(unet):
    return {name: (value.dtype.str, value.shape, value.tobytes())
            for name, value in unet.state_dict().items()}


def assert_same_training(dataset, config, base=8, depth=2, batch_norm=True):
    def fresh():
        return UNet(NUM_FEATURE_CHANNELS, 1, base_channels=base, depth=depth,
                    rng=0, batch_norm=batch_norm)

    eager, captured = fresh(), fresh()
    losses = eager_train(eager, dataset, config)
    history = train_unet(captured, dataset, config)
    assert history.losses == losses
    assert checkpoint_bytes(captured) == checkpoint_bytes(eager)
    assert not captured.training


class TestCheckpointParity:
    @pytest.mark.parametrize("design", ["A", "B", "C"])
    def test_train_workload(self, design):
        # 12x12, 12 samples, 20 epochs: 30 rows, batches of 8 and 6.
        dataset = train_set(design, 12, 12)
        assert dataset.flat_inputs().shape[0] % 8 != 0
        assert_same_training(dataset, TrainConfig(epochs=20))

    def test_cli_fill_setup(self):
        assert_same_training(train_set("A", 10, 16), TrainConfig(epochs=6))

    def test_eco_setup(self):
        assert_same_training(train_set("A", 16, 16), TrainConfig(epochs=6),
                             base=4, depth=1)

    def test_small_remainder_batch(self):
        dataset = train_set("A", 12, 12)
        assert dataset.flat_inputs().shape[0] % 7 == 2
        assert_same_training(dataset, TrainConfig(epochs=3, batch_size=7))

    @pytest.mark.parametrize("config,batch_norm", [
        (TrainConfig(epochs=3, variance_weight=0.0), True),
        (TrainConfig(epochs=3), False),
        (TrainConfig(epochs=3, shuffle=False), True),
    ], ids=["variance_weight_0", "batch_norm_off", "no_shuffle"])
    def test_config_variants(self, config, batch_norm):
        assert_same_training(train_set("A", 12, 12), config,
                             batch_norm=batch_norm)

    def test_one_trace_per_batch_shape(self, monkeypatch):
        traces = []
        trace = CapturedGraph.trace.__func__

        def counting(cls, build, inputs, *args, **kwargs):
            traces.append(inputs["x"].shape[0])
            return trace(cls, build, inputs, *args, **kwargs)

        monkeypatch.setattr(CapturedGraph, "trace", classmethod(counting))
        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
        train_unet(unet, train_set("A", 12, 12), TrainConfig(epochs=3))
        assert traces == [8, 6]


class TestParameterGradientPlan:
    """Every replay of a training plan runs the forward, so batch-norm
    running statistics move exactly as eager's do."""

    def test_same_inputs_twice_updates_running_stats_twice(self):
        dataset = train_set("A", 12, 12)
        batch = {"x": dataset.flat_inputs()[:8],
                 "y": dataset.flat_targets()[:8]}

        def fresh():
            return UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2,
                        rng=0).train()

        captured, eager = fresh(), fresh()
        plan = CapturedGraph.trace(_loss_graph(captured, 0.5), batch,
                                   root="loss", param_grads=True)
        reused = [plan.replay(batch), plan.replay(batch)]

        build = _loss_graph(eager, 0.5)
        for _ in range(3):
            for p in eager.parameters():
                p.zero_grad()
            loss = build({"x": Tensor(batch["x"]), "y": Tensor(batch["y"])})
            loss["loss"].backward()

        assert checkpoint_bytes(captured) == checkpoint_bytes(eager)
        assert reused == [False, False]
        assert plan.outputs["loss"].data == loss["loss"].data
        for p, q in zip(captured.parameters(), eager.parameters()):
            assert np.array_equal(p.grad, q.grad)
        # The plan lends its gradient buffers only for the sweep.
        assert all(p._grad_buf is None for p in captured.parameters())
