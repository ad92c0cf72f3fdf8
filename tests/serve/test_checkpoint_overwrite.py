"""Served weights change when the registered checkpoint is overwritten in
place, and in no other way.

A fill served after the overwrite must equal the one-shot
``NeurFill.run`` on the new checkpoint bit for bit, in thread mode (the
executor's batcher is keyed by the checkpoint stamp) and in process mode
(every forked child revalidates the stamp at its next bind).  The fills
are multi-modal: the PKB accept check may discard the surrogate-driven
refinement, which would leave a PKB fill unchanged by new weights.
"""

import copy
import multiprocessing

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.core import BETA_RUNTIME_S, FillProblem, NeurFill, ScoreCoefficients
from repro.layout import load_layout, save_layout
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.optimize import SqpOptimizer
from repro.serve import FillServer, ModelRegistry, ServeConfig
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    HeightNormalizer,
    load_surrogate,
    save_surrogate,
)

from .test_registry import overwrite_in_place
from .test_server import Collector, submit

PARAMS = {"method": "neurfill-mm", "model": "m", "max_evaluations": 60,
          "top_k": 2, "score": False, "return_fill": True}


def _save(directory, unet):
    return save_surrogate(directory, unet, HeightNormalizer(2500.0, 300.0),
                          base_channels=4, depth=2)


def _altered(unet):
    """Same architecture, visibly different weights."""
    altered = copy.deepcopy(unet)
    state = altered.state_dict()
    first = sorted(state)[0]
    state[first] = np.asarray(state[first]) + 0.5
    altered.load_state_dict(state)
    return altered


def _oneshot(checkpoint, layout):
    problem = FillProblem(layout, ScoreCoefficients.calibrated(
        layout, CmpSimulator(), beta_runtime=BETA_RUNTIME_S))
    return NeurFill(
        problem, load_surrogate(checkpoint, layout),
        optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
        simulator=CmpSimulator(),
    ).run("neurfill-mm", max_evaluations=PARAMS["max_evaluations"],
          top_k=PARAMS["top_k"]).fill


@pytest.fixture()
def setup(tmp_path):
    """(layout path, served checkpoint, its replacement, both one-shot
    fills)."""
    layout = DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3)
    layout_path = str(tmp_path / "a.json")
    save_layout(layout, layout_path)
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
    checkpoint = str(_save(tmp_path / "ckpt", unet))
    replacement = str(_save(tmp_path / "v2", _altered(unet)))
    layout = load_layout(layout_path)
    before = _oneshot(checkpoint, layout)
    after = _oneshot(replacement, layout)
    assert not np.array_equal(before, after)
    return layout_path, checkpoint, replacement, before, after


def _serve(server, collector, rids, layout_path):
    for rid in rids:
        submit(server, collector, rid,
               params=dict(PARAMS, layout_path=layout_path))
    return [np.array(collector.wait_for(rid, "done", timeout=120.0)
                     ["result"]["fill"]) for rid in rids]


class TestThreadMode:
    def test_overwrite_rebinds_and_closes_the_stale_batcher(self, setup):
        layout_path, checkpoint, replacement, before, after = setup
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        server = FillServer(registry=registry, serve_config=ServeConfig(
            workers=2, queue_capacity=8, worker_mode="thread"))
        server.start()
        try:
            collector = Collector()
            (first,) = _serve(server, collector, ["a"], layout_path)
            assert first.tobytes() == before.tobytes()
            (stale,) = [batcher for key, batcher
                        in server.executor._batchers.items()
                        if key[0] == "m"]

            overwrite_in_place(checkpoint, replacement)
            (second,) = _serve(server, collector, ["b"], layout_path)
            assert second.tobytes() == after.tobytes()
            assert not np.array_equal(second, first)
            batchers = [batcher for key, batcher
                        in server.executor._batchers.items()
                        if key[0] == "m"]
            assert len(batchers) == 1
            assert batchers[0] is not stale
            assert stale._closed
            # Older servers tagged results with a model generation.
            assert "generation" not in collector.wait_for("b", "done")["result"]
            assert "lifecycle" not in server.stats_snapshot()
        finally:
            server.shutdown(timeout=30.0)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="process workers need the fork start method")
class TestProcessMode:
    def test_every_child_reloads_the_overwritten_checkpoint(self, setup):
        layout_path, checkpoint, replacement, before, after = setup
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        server = FillServer(registry=registry, serve_config=ServeConfig(
            workers=2, queue_capacity=8, worker_mode="process"))
        server.start()
        try:
            collector = Collector()
            for fill in _serve(server, collector, ["a1", "a2"], layout_path):
                assert fill.tobytes() == before.tobytes()
            jobs = [w["jobs"] for w in server.stats_snapshot()["proc_workers"]]

            overwrite_in_place(checkpoint, replacement)
            # Two fills in flight at once land on both children.
            for fill in _serve(server, collector, ["b1", "b2"], layout_path):
                assert fill.tobytes() == after.tobytes()
                assert not np.array_equal(fill, before)
            later = [w["jobs"] for w in server.stats_snapshot()["proc_workers"]]
            assert [b - a for a, b in zip(jobs, later)] == [1, 1]
        finally:
            server.shutdown(timeout=30.0)
