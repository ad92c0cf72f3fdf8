"""The fill contract at every exit: finite, layout-shaped, ``0 <= fill <=
slack``.

Every fill method checks its own result with ``Layout.validate_fill``
before returning it, so a breach raises the typed ``FillContractError``
instead of leaving the method — even on paths that never score or insert
the fill (``repro fill`` exits 2, a served ``score: false`` job ends in
``error``, an ECO cache hit refuses an above-slack parent).
"""

import importlib

import numpy as np
import pytest

from repro.baselines import lin_fill, tao_fill
from repro.cli import main
from repro.core import (FillProblem, FillResult, NeurFill, ScoreCoefficients,
                        eco_refill)
from repro.layout import (FillContractError, edit_layout, make_design_a,
                          save_layout)
from repro.nn import UNet
from repro.optimize import SqpOptimizer, SqpResult
from repro.surrogate import (NUM_FEATURE_CHANNELS, CmpNeuralNetwork,
                             HeightNormalizer, save_surrogate)


def above_slack(fill, upper):
    """``fill`` with its first entry one um^2 above the slack."""
    bad = np.array(fill, dtype=float)
    bad.flat[0] = np.ravel(upper)[0] + 1.0
    return bad


@pytest.fixture()
def broken_optimizer(monkeypatch):
    """Every SQP refinement returns its start with one entry above slack."""
    def maximize(self, fun, x0, lower, upper, fun_value=None):
        x = above_slack(np.clip(x0, lower, upper),
                        np.broadcast_to(upper, np.shape(x0)))
        return SqpResult(x=x, value=0.0, iterations=0, evaluations=0,
                         converged=True)

    monkeypatch.setattr(SqpOptimizer, "maximize", maximize)


def random_network(layout):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0))


class TestValidateFill:
    @pytest.mark.parametrize("breach", ["above", "negative", "nan", "shape"])
    def test_typed_error(self, small_layout, breach):
        slack = small_layout.slack_stack()
        fill = 0.5 * slack
        if breach == "above":
            fill = above_slack(fill, slack)
        elif breach == "negative":
            fill[1, 2, 3] = -1.0
        elif breach == "nan":
            fill[0, 0, 1] = np.nan
        else:
            fill = fill[:1]
        with pytest.raises(FillContractError) as err:
            small_layout.validate_fill(fill)
        assert isinstance(err.value, ValueError)
        assert len(str(err.value).splitlines()) == 1

    def test_message_names_the_worst_entry(self, small_layout):
        slack = small_layout.slack_stack()
        fill = 0.5 * slack
        fill[2, 4, 5] = slack[2, 4, 5] + 3.0
        with pytest.raises(FillContractError, match=r"entry \(2, 4, 5\)"):
            small_layout.validate_fill(fill)


class TestFillMethodsCheckTheirFill:
    def test_pkb(self, small_problem, broken_optimizer):
        neurfill = NeurFill(small_problem, random_network(small_problem.layout))
        with pytest.raises(FillContractError):
            neurfill.run_pkb(num_candidates=3)

    def test_from_start(self, small_problem, broken_optimizer):
        neurfill = NeurFill(small_problem, random_network(small_problem.layout))
        with pytest.raises(FillContractError):
            neurfill.run_from_start(0.5 * small_problem.upper)

    def test_multimodal(self, small_problem, monkeypatch):
        # import_module: repro.core re-exports a function named like the
        # msp_sqp module, which shadows a plain import.
        msp = importlib.import_module("repro.core.msp_sqp")

        def broken_batched(fun_batch, starts, lower, upper, optimizer):
            return [SqpResult(x=above_slack(s, upper), value=0.0,
                              iterations=0, evaluations=0, converged=True)
                    for s in starts]

        monkeypatch.setattr(msp, "refine_starting_points_batched",
                            broken_batched)
        neurfill = NeurFill(small_problem, random_network(small_problem.layout))
        with pytest.raises(FillContractError):
            neurfill.run_multimodal(max_evaluations=30, top_k=2)

    @pytest.mark.parametrize("method", [lin_fill, tao_fill])
    def test_baselines(self, small_problem, monkeypatch, method):
        clip = small_problem.clip
        monkeypatch.setattr(small_problem, "clip",
                            lambda fill: above_slack(clip(fill),
                                                     small_problem.upper))
        with pytest.raises(FillContractError):
            method(small_problem)


class TestEcoChecksEveryReturn:
    @pytest.fixture()
    def setup(self, small_problem):
        layout = small_problem.layout
        parent = above_slack(0.5 * small_problem.upper, small_problem.upper)
        return small_problem, random_network(layout), parent

    def test_cache_hit_on_bare_parent_fill(self, setup):
        problem, network, parent = setup
        with pytest.raises(FillContractError):
            eco_refill(problem, network, problem.layout, parent)

    def test_cache_hit_on_parent_result(self, setup):
        problem, network, parent = setup
        result = FillResult(method="neurfill-pkb", fill=parent, quality=0.5)
        with pytest.raises(FillContractError):
            eco_refill(problem, network, problem.layout, result)

    def test_parent_breach_in_frozen_set(self):
        # 36x36 with a depth-1 model: the edit's halo leaves entry (0, 0,
        # 0) frozen, so its above-slack parent value would be returned.
        parent_layout = make_design_a(rows=36, cols=36)
        edited = edit_layout(parent_layout, 1, slice(30, 32), slice(30, 32))
        problem = FillProblem(edited, ScoreCoefficients())
        parent = above_slack(0.5 * problem.upper, problem.upper)
        with pytest.raises(FillContractError):
            eco_refill(problem, random_network(edited), parent_layout, parent)

    def test_refilled_result(self, small_problem, broken_optimizer):
        # 10x10: the depth-1 halo frees the whole chip, so the broken
        # refinement's above-slack entry lands in the result.
        edited = edit_layout(small_problem.layout, 1, slice(2, 4),
                             slice(2, 4))
        problem = FillProblem(edited, small_problem.coefficients)
        with pytest.raises(FillContractError):
            eco_refill(problem, random_network(edited), small_problem.layout,
                       0.5 * small_problem.upper)


@pytest.fixture()
def keep_refined(monkeypatch):
    """Neutralise the simulator's selection guard (equal verdicts), so
    ``run_pkb`` keeps the refined fill instead of falling back to its
    PKB start."""
    neurfill = importlib.import_module("repro.core.neurfill")
    monkeypatch.setattr(neurfill, "simulator_qualities",
                        lambda problem, simulator, fills: np.zeros(len(fills)))


@pytest.fixture()
def checkpoint(tmp_path):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
    return str(save_surrogate(tmp_path / "ckpt", unet,
                              HeightNormalizer(2500.0, 300.0),
                              base_channels=4, depth=1))


@pytest.fixture()
def layout_path(tmp_path):
    path = tmp_path / "a.json"
    save_layout(make_design_a(rows=8, cols=8, seed=3), str(path))
    return str(path)


def test_cli_fill_exits_2_with_one_line(layout_path, checkpoint, tmp_path,
                                        capsys, broken_optimizer,
                                        keep_refined):
    out = tmp_path / "fill.npz"
    rc = main(["fill", layout_path, "--method", "neurfill-pkb",
               "--model", checkpoint, "--fill-out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("repro: error: fill violates slack bounds")
    assert not out.exists()


def test_served_unscored_fill_ends_in_error(layout_path, checkpoint,
                                            broken_optimizer, keep_refined):
    from repro.serve import FillServer, ModelRegistry, ServeConfig, encode

    from ..serve.test_server import Collector

    registry = ModelRegistry()
    registry.register("m", checkpoint)
    server = FillServer(registry=registry,
                        serve_config=ServeConfig(workers=1, max_batch=1))
    server.start()
    try:
        collector = Collector()
        server.handle_line(encode({
            "id": "j", "op": "fill",
            "params": {"layout_path": layout_path, "method": "neurfill-pkb",
                       "model": "m", "score": False}}), collector)
        failed = collector.wait_for("j", "error", timeout=120.0)
        assert "slack" in failed["error"]
        assert "done" not in collector.statuses("j")
    finally:
        server.shutdown(timeout=30.0)
