"""The NeurFill framework facade (paper Section IV, Fig. 7).

Two operating modes, matching Table III's rows:

* :meth:`NeurFill.run_pkb` — prior-knowledge-based starting point (linear
  target-density search, Eq. 18) followed by one SQP refinement.  Fast;
  quality depends on the empirical prior.
* :meth:`NeurFill.run_multimodal` — NMMSO locates the peak regions of the
  quality score, every located optimum seeds an SQP refinement (MSP-SQP),
  and the best refined solution wins.  Slower, but independent of prior
  knowledge and certifiably the best of all located local optima.

Both modes evaluate planarity through the CMP neural network (backprop
gradients) and performance degradation analytically.  With a simulator
attached, the selection decisions (PKB ranking, the PKB accept check and
MM's verdict) are judged by the real simulator, each as one batched
polish (:func:`simulator_qualities`).
"""

from __future__ import annotations

import functools
import time

import numpy as np

from ..cmp.simulator import CmpSimulator
from ..layout.layout import apply_fill
from ..obs import trace as obs_trace
from ..optimize.nmmso import Nmmso
from ..optimize.sqp import SqpOptimizer
from ..surrogate.network import CmpNeuralNetwork
from .msp_sqp import QualityModel, msp_sqp
from .pkb import pkb_starting_point
from .problem import FillProblem
from .result import FillResult
from .scoring import evaluate_solution


def simulator_qualities(problem: FillProblem, simulator: CmpSimulator,
                        fills: np.ndarray) -> np.ndarray:
    """Simulator-judged quality of each fill of a ``(P, L, N, M)`` stack.

    Each fill is clipped into the feasible box and applied to the
    layout, all ``P`` layouts polish in one
    :meth:`~repro.cmp.simulator.CmpSimulator.simulate_batch`, and entry
    ``p`` is scored by :func:`evaluate_solution` from its own slice of
    the batch.  ``simulate_batch`` is bitwise equal to looping
    ``simulate``, so every score is bitwise the quality
    ``evaluate_solution(problem, fill, ..., simulator=simulator)``
    reports for that fill alone.
    """
    clipped = [problem.clip(fill) for fill in fills]
    batch = simulator.simulate_batch(
        [apply_fill(problem.layout, fill) for fill in clipped])
    return np.array([
        evaluate_solution(problem, fill, "probe",
                          cmp_result=batch.entry(p)).quality
        for p, fill in enumerate(clipped)
    ])


class NeurFill:
    """Model-based dummy filling synthesis with a neural CMP surrogate.

    Args:
        problem: layout + score coefficients.
        network: pre-trained CMP neural network bound to the same layout.
        optimizer: SQP configuration (scalable L-BFGS mode by default).
        simulator: optional CMP simulator for the selection decisions
            of :meth:`run_pkb` and :meth:`run_multimodal`.

    Several starting points are refined in lockstep with batched network
    passes (see :func:`repro.core.msp_sqp.msp_sqp`).  Every mode checks
    its fill with :meth:`~repro.layout.layout.Layout.validate_fill` before
    returning it, so a contract breach raises
    :class:`~repro.layout.layout.FillContractError` instead of leaving.
    """

    def __init__(self, problem: FillProblem, network: CmpNeuralNetwork,
                 optimizer: SqpOptimizer | None = None,
                 simulator: "CmpSimulator | None" = None):
        self.problem = problem
        self.model = QualityModel(problem, network)
        # Score gradients are ~alpha/beta, i.e. tiny in um^2 units, so the
        # projected-gradient tolerance must sit well below them.
        self.optimizer = optimizer or SqpOptimizer(max_iter=60, tol=1e-9)
        self.simulator = simulator

    # ------------------------------------------------------------------
    def run_pkb(self, num_candidates: int = 9) -> FillResult:
        """NeurFill (PKB): prior-knowledge starting point + SQP.

        When a simulator was passed to the constructor it is used for two
        cheap *selection* decisions (gradients stay pure backprop):

        * ranking the ``num_candidates`` PKB targets of the linear search
          (the paper's prior method [12] also ranks them with the model);
        * keeping the refined solution only if the simulator agrees it
          beats the starting point — a guard against surrogate error at
          reduced training budgets (see EXPERIMENTS.md).  The start's
          score is the one its ranking already produced.  The verdict is
          recorded: ``extras["pkb_refinement_kept"]`` and
          ``extras["pkb_refined_quality"]`` next to ``"pkb_quality"``,
          and ``kept``/``start_quality``/``refined_quality`` on the
          ``pkb-accept`` ``core.select`` span.

        Total extra cost: one batched polish of ``num_candidates``
        layouts plus one polish of the refined fill, i.e. ~1e-4 of one
        finite-difference gradient.  Without a simulator the surrogate
        ranks the candidates, one network forward each.
        """
        t0 = time.perf_counter()
        start_evals = self.model.evaluations
        if self.simulator is not None:
            scorer = functools.partial(simulator_qualities, self.problem,
                                       self.simulator)
        else:
            scorer = self.model.quality_rows
        pkb = pkb_starting_point(self.problem.layout, scorer, num_candidates)
        outcome = msp_sqp(self.model, [pkb.fill], self.optimizer)
        best_fill = outcome.best_fill
        extras = {"pkb_targets": pkb.targets.tolist(),
                  "pkb_quality": pkb.quality}
        if self.simulator is not None:
            with obs_trace.span("core.select", cat="core",
                                decision="pkb-accept", candidates=1) as span:
                refined = float(simulator_qualities(
                    self.problem, self.simulator, best_fill[None])[0])
                kept = not refined < pkb.quality
                span.set(kept=kept, start_quality=pkb.quality,
                         refined_quality=refined)
            if not kept:
                best_fill = pkb.fill
            extras.update(pkb_refinement_kept=kept,
                          pkb_refined_quality=refined)
        self.problem.layout.validate_fill(best_fill)
        final = self.model.evaluate(best_fill, want_grad=False)
        return FillResult(
            method="neurfill-pkb",
            fill=best_fill,
            quality=final.quality,
            planarity=final.planarity,
            degradation=final.degradation,
            runtime_s=time.perf_counter() - t0,
            evaluations=self.model.evaluations - start_evals,
            starts=1,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def run_multimodal(
        self,
        max_evaluations: int = 600,
        top_k: int = 4,
        include_pkb: bool = False,
        seed: int = 0,
    ) -> FillResult:
        """NeurFill (MM): multi-modal starting-point search + MSP-SQP.

        Args:
            max_evaluations: NMMSO objective budget (network rows; each
                PSO step's probes go out in
                :data:`~repro.core.msp_sqp.PROBE_STACK`-row stacks).
            top_k: number of located optima refined by SQP.
            include_pkb: additionally seed with the PKB start (off by
                default — the paper stresses MM needs no prior knowledge).
            seed: NMMSO RNG seed.

        The winner among the refined candidates is picked with the *real*
        CMP simulator when one was passed to the constructor ("the best
        among all available local optimums" must not be an artefact of
        surrogate error — this costs one batched polish of the ``top_k``
        refined fills, the first best winning a tie); without a
        simulator, surrogate quality decides.
        """
        t0 = time.perf_counter()
        start_evals = self.model.evaluations
        search = Nmmso(
            self.model.quality_rows,
            lower=self.problem.lower,
            upper=self.problem.upper,
            max_evaluations=max_evaluations,
            seed=seed,
        )
        found = search.run()
        starts = [o.x for o in found.optima[:top_k]]
        if include_pkb:
            starts.append(pkb_starting_point(
                self.problem.layout, self.model.quality_rows).fill)
        outcome = msp_sqp(self.model, starts, self.optimizer)
        best_fill = outcome.best_fill
        if self.simulator is not None:
            candidates = [r.x for r in outcome.results]
            with obs_trace.span("core.select", cat="core",
                                decision="mm-verdict",
                                candidates=len(candidates)):
                verdicts = simulator_qualities(
                    self.problem, self.simulator, np.stack(candidates))
            best_fill = candidates[int(np.argmax(verdicts))]
        self.problem.layout.validate_fill(best_fill)
        final = self.model.evaluate(best_fill, want_grad=False)
        return FillResult(
            method="neurfill-mm",
            fill=best_fill,
            quality=final.quality,
            planarity=final.planarity,
            degradation=final.degradation,
            runtime_s=time.perf_counter() - t0,
            evaluations=self.model.evaluations - start_evals,
            starts=len(starts),
            extras={
                "nmmso_optima": len(found.optima),
                "nmmso_evaluations": found.evaluations,
                "refined_qualities": [r.value for r in outcome.results],
            },
        )

    # ------------------------------------------------------------------
    def run(
        self,
        method: str,
        *,
        seed: int = 0,
        max_evaluations: int = 500,
        top_k: int = 3,
        num_candidates: int = 9,
    ) -> FillResult:
        """Dispatch a synthesis mode by its CLI/serve method tag.

        Shared entry point of the one-shot CLI and :mod:`repro.serve`, so
        a served job runs the exact code path of ``repro fill`` — the
        basis of the served-equals-CLI parity guarantee.

        Args:
            method: ``"neurfill-pkb"``/``"pkb"`` or
                ``"neurfill-mm"``/``"mm"``.
            seed / max_evaluations / top_k: forwarded to
                :meth:`run_multimodal` (ignored by PKB).
            num_candidates: forwarded to :meth:`run_pkb` (ignored by MM).
        """
        if method in ("pkb", "neurfill-pkb"):
            return self.run_pkb(num_candidates=num_candidates)
        if method in ("mm", "neurfill-mm"):
            return self.run_multimodal(
                max_evaluations=max_evaluations, top_k=top_k, seed=seed)
        raise ValueError(
            f"unknown NeurFill method {method!r}; expected "
            f"'neurfill-pkb' or 'neurfill-mm'"
        )

    # ------------------------------------------------------------------
    def run_from_start(self, start: np.ndarray, method: str = "neurfill-custom") -> FillResult:
        """Single-start SQP refinement from a caller-provided fill."""
        t0 = time.perf_counter()
        start_evals = self.model.evaluations
        outcome = msp_sqp(self.model, [self.problem.clip(start)], self.optimizer)
        self.problem.layout.validate_fill(outcome.best_fill)
        final = self.model.evaluate(outcome.best_fill, want_grad=False)
        return FillResult(
            method=method,
            fill=outcome.best_fill,
            quality=final.quality,
            planarity=final.planarity,
            degradation=final.degradation,
            runtime_s=time.perf_counter() - t0,
            evaluations=self.model.evaluations - start_evals,
            starts=1,
        )
