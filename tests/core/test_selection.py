"""Simulator-assisted selection: one batched polish per decision.

``NeurFill`` asks the real simulator to rank the PKB candidates, to
accept or reject the refined PKB fill and to pick MM's best refined
start; ``cai_fill`` ranks its PKB candidates the same way.  Each
decision is one ``simulate_batch``, and ``simulate_batch`` is bitwise
equal to looped ``simulate``, so every selection must land on exactly
the fill the one-polish-per-candidate loop below picks.
"""

import numpy as np
import pytest

from repro.baselines import SimulatorQuality, cai_fill
from repro.cli import main
from repro.cmp import CmpSimulator
from repro.core import (FillProblem, NeurFill, QualityModel, ScoreCoefficients,
                        evaluate_solution, msp_sqp)
from repro.core import neurfill
from repro.core.pkb import fill_for_target_density, target_density_range
from repro.layout import (make_design_a, make_design_b, make_design_c,
                          save_layout)
from repro.nn import UNet
from repro.obs import validate_trace_path
from repro.optimize import Nmmso, SqpOptimizer
from repro.surrogate import (NUM_FEATURE_CHANNELS, CmpNeuralNetwork,
                             HeightNormalizer, save_surrogate)

DESIGNS = {"A": make_design_a, "B": make_design_b, "C": make_design_c}


class CountingSimulator(CmpSimulator):
    """Counts solo polishes and the entries of every batched polish."""

    def __init__(self):
        super().__init__()
        self.solo = 0
        self.batches = []

    def simulate(self, features):
        self.solo += 1
        return super().simulate(features)

    def simulate_batch(self, features):
        result = super().simulate_batch(features)
        self.batches.append(int(np.prod(result.batch_shape)))
        return result


def random_network(layout):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0))


def optimizer():
    return SqpOptimizer(max_iter=25, tol=1e-9)


def loop_quality(problem, simulator):
    """One ``evaluate_solution`` polish per fill: the reference scorer."""
    return lambda fill: evaluate_solution(problem, fill, "probe",
                                          simulator=simulator).quality


def reference_pkb(problem, network, simulator, num_candidates=9):
    """PKB as a loop: rank the candidates one polish each (first best
    wins), refine the winner, then polish the refined fill and the
    start again for the accept check.  Returns the fill, the targets,
    the start's score, the refined fill's score and whether it was
    kept."""
    quality = loop_quality(problem, simulator)
    lo, hi = target_density_range(problem.layout)
    best = None
    for frac in np.linspace(0.0, 1.0, num_candidates):
        targets = lo + frac * (hi - lo)
        fill = fill_for_target_density(problem.layout, targets)
        score = quality(fill)
        if best is None or score > best[2]:
            best = (fill, targets, score)
    start, targets, score = best
    refined = msp_sqp(QualityModel(problem, network), [start],
                      optimizer()).best_fill
    kept = not quality(refined) < quality(start)
    return refined if kept else start, targets, score, quality(refined), kept


def reference_mm(problem, network, simulator, max_evaluations, top_k,
                 seed=0):
    """MM as a loop: NMMSO scores its probes one row at a time and the
    verdict takes one polish per refined start, first best wins."""
    model = QualityModel(problem, network)
    found = Nmmso(lambda fills: np.array([model.quality(f) for f in fills]),
                  lower=problem.lower, upper=problem.upper,
                  max_evaluations=max_evaluations, seed=seed).run()
    outcome = msp_sqp(model, [o.x for o in found.optima[:top_k]],
                      optimizer())
    quality = loop_quality(problem, simulator)
    candidates = [r.x for r in outcome.results]
    verdicts = [quality(c) for c in candidates]
    return (candidates[int(np.argmax(verdicts))],
            [r.value for r in outcome.results])


@pytest.fixture(scope="module")
def problems(simulator):
    out = {}
    for key, make in DESIGNS.items():
        layout = make(rows=8, cols=8)
        out[key] = FillProblem(
            layout, ScoreCoefficients.calibrated(layout, simulator))
    return out


class TestCounts:
    def test_pkb_one_ranking_batch_and_one_polish(self, problems):
        problem = problems["A"]
        sim = CountingSimulator()
        NeurFill(problem, random_network(problem.layout), optimizer(),
                 simulator=sim).run_pkb(num_candidates=9)
        # The ranking polishes all nine candidates at once; the accept
        # check polishes only the refined fill, because the start's
        # score came from the ranking.
        assert sim.batches == [9, 1]
        assert sim.solo == 0

    def test_mm_one_verdict_batch(self, problems):
        problem = problems["B"]
        sim = CountingSimulator()
        result = NeurFill(problem, random_network(problem.layout),
                          optimizer(), simulator=sim).run_multimodal(
            max_evaluations=120, top_k=3)
        assert len(result.extras["refined_qualities"]) == 3
        assert sim.batches == [3]
        assert sim.solo == 0

    def test_cai_ranks_in_one_batch(self, simulator):
        layout = make_design_a(rows=6, cols=6)
        problem = FillProblem(
            layout, ScoreCoefficients.calibrated(layout, simulator))
        sim = CountingSimulator()
        result = cai_fill(problem, simulator=sim, max_sqp_iterations=1,
                          pkb_candidates=5)
        assert sim.batches[0] == 5
        # Every polished layout still counts as one simulation.
        assert result.extras["simulations"] == sim.solo + sum(sim.batches)

    def test_cai_unchanged_by_batched_ranking(self, simulator, monkeypatch):
        """A simulator that polishes one layout per call (the batches
        split into solo polishes) gives the same Cai fill bits, quality
        and simulation count."""
        layout = make_design_a(rows=6, cols=6)
        problem = FillProblem(
            layout, ScoreCoefficients.calibrated(layout, simulator))
        kwargs = dict(max_sqp_iterations=1, pkb_candidates=5)
        batched = cai_fill(problem, simulator=simulator, **kwargs)
        monkeypatch.setattr(
            SimulatorQuality, "quality_batch",
            lambda self, fills: np.array([self.quality(f) for f in fills]))
        looped = cai_fill(problem, simulator=simulator, **kwargs)
        assert batched.fill.tobytes() == looped.fill.tobytes()
        assert batched.quality == looped.quality
        assert batched.extras["pkb_quality"] == looped.extras["pkb_quality"]
        assert (batched.extras["simulations"]
                == looped.extras["simulations"])


class TestSameSelection:
    """The batched selections pick bitwise what the loops pick."""

    @pytest.mark.parametrize("key", sorted(DESIGNS))
    def test_pkb_matches_loop(self, problems, simulator, key):
        problem = problems[key]
        result = NeurFill(problem, random_network(problem.layout),
                          optimizer(), simulator=simulator).run_pkb()
        fill, targets, score, refined, kept = reference_pkb(
            problem, random_network(problem.layout), simulator)
        assert result.fill.tobytes() == fill.tobytes()
        assert result.extras["pkb_targets"] == targets.tolist()
        assert result.extras["pkb_quality"] == score
        # The accept verdict is recorded, and it is False exactly when
        # the fill is the PKB start.
        assert result.extras["pkb_refined_quality"] == refined
        assert result.extras["pkb_refinement_kept"] is kept
        start = fill_for_target_density(problem.layout, targets)
        assert kept is (result.fill.tobytes() != start.tobytes())

    def test_pkb_accept_check_keeps_start(self, problems, simulator):
        """An untrained surrogate refines away from what the simulator
        likes, so the accept check falls back to the PKB start."""
        problem = problems["A"]
        result = NeurFill(problem, random_network(problem.layout),
                          optimizer(), simulator=simulator).run_pkb()
        start = fill_for_target_density(
            problem.layout, np.array(result.extras["pkb_targets"]))
        assert result.fill.tobytes() == start.tobytes()

    def test_pkb_records_a_kept_refinement(self, problems, simulator,
                                            monkeypatch):
        """A simulator that scores the refined fill higher keeps it, and
        the record says so."""
        real = neurfill.simulator_qualities

        def generous(problem, sim, fills):
            qualities = real(problem, sim, fills)
            return qualities + 1.0 if len(fills) == 1 else qualities

        monkeypatch.setattr(neurfill, "simulator_qualities", generous)
        problem = problems["A"]
        result = NeurFill(problem, random_network(problem.layout),
                          optimizer(), simulator=simulator).run_pkb()
        extras = result.extras
        start = fill_for_target_density(
            problem.layout, np.array(extras["pkb_targets"]))
        assert extras["pkb_refinement_kept"] is True
        assert result.fill.tobytes() != start.tobytes()
        assert (extras["pkb_refined_quality"]
                == real(problem, simulator, result.fill[None])[0] + 1.0)

    @pytest.mark.parametrize("key", sorted(DESIGNS))
    def test_mm_matches_loop(self, problems, simulator, key):
        problem = problems[key]
        result = NeurFill(problem, random_network(problem.layout),
                          optimizer(), simulator=simulator).run_multimodal(
            max_evaluations=120, top_k=3)
        fill, refined = reference_mm(problem, random_network(problem.layout),
                                     simulator, max_evaluations=120, top_k=3)
        assert result.fill.tobytes() == fill.tobytes()
        assert result.extras["refined_qualities"] == refined


class TestSelectionSpans:
    def test_trace_fill_records_pkb_rank(self, tmp_path):
        """``repro trace fill --method neurfill-pkb`` records one
        ``pkb-rank`` decision over 9 candidates with its batched polish
        nested inside, and tracing leaves the fill bitwise unchanged."""
        layout_path = tmp_path / "a.json"
        save_layout(make_design_a(rows=8, cols=8, seed=3), str(layout_path))
        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
        ckpt = save_surrogate(tmp_path / "ckpt", unet,
                              HeightNormalizer(2500.0, 300.0),
                              base_channels=4, depth=1)
        argv = ["fill", str(layout_path), "--method", "neurfill-pkb",
                "--model", str(ckpt)]
        assert main([*argv, "--fill-out", str(tmp_path / "plain.npz")]) == 0
        trace_path = tmp_path / "t.jsonl"
        assert main(["trace", "-o", str(trace_path), *argv,
                     "--fill-out", str(tmp_path / "traced.npz")]) == 0

        spans = [r for r in validate_trace_path(trace_path)
                 if r["type"] == "span"]
        selects = [s for s in spans if s["name"] == "core.select"]
        assert sorted(s["attrs"]["decision"] for s in selects) == [
            "pkb-accept", "pkb-rank"]
        for select in selects:
            entries = 9 if select["attrs"]["decision"] == "pkb-rank" else 1
            assert select["cat"] == "core"
            assert select["attrs"]["candidates"] == entries
            polishes = [s["attrs"]["batch"] for s in spans
                        if s["parent"] == select["id"]
                        and s["name"] == "cmp.simulate_batch"]
            assert polishes == [entries]
        # The accept check records its verdict and both qualities.
        (accept,) = [s["attrs"] for s in selects
                     if s["attrs"]["decision"] == "pkb-accept"]
        assert accept["kept"] is (accept["refined_quality"]
                                  >= accept["start_quality"])

        plain = np.load(tmp_path / "plain.npz")["fill"]
        traced = np.load(tmp_path / "traced.npz")["fill"]
        assert plain.tobytes() == traced.tobytes()
