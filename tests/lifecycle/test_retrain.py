"""Retrain orchestrator tests: state machine, retries, determinism.

The state-machine tests stub out the expensive train/validate stages;
the determinism test at the bottom runs the real (tiny) pipeline twice
and asserts byte-identical checkpoint directories for a fixed seed.
"""

import threading

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.layout.designs import DESIGN_BUILDERS
from repro.layout.io import layout_to_dict
from repro.lifecycle import (
    LifecycleManager,
    OffenderSample,
    ResidualRecord,
    RetrainConfig,
    RetrainOrchestrator,
    split_offenders,
)
from repro.lifecycle.retrain import _ValidationFailed
from repro.serve import ServeConfig


@pytest.fixture(scope="module")
def layout():
    return DESIGN_BUILDERS["A"](rows=8, cols=8, seed=2)


def offender(layout, job_id="j1", rmse=100.0):
    return OffenderSample(
        job_id=job_id, model="m", generation=1,
        layout=layout_to_dict(layout),
        fill=np.zeros((layout.num_layers, layout.grid.rows,
                       layout.grid.cols)),
        sim_heights=np.zeros((layout.grid.rows, layout.grid.cols)),
        rmse=rmse)


class TestSplitOffenders:
    def test_even_odd_split(self, layout):
        offs = [offender(layout, job_id=f"j{i}") for i in range(5)]
        train, holdout = split_offenders(offs)
        assert [o.job_id for o in train] == ["j0", "j2", "j4"]
        assert [o.job_id for o in holdout] == ["j1", "j3"]

    def test_single_offender_serves_both_roles(self, layout):
        offs = [offender(layout)]
        train, holdout = split_offenders(offs)
        assert train == offs and holdout == offs


class StubbedOrchestrator(RetrainOrchestrator):
    """Replaces the train/validate stages with scripted outcomes."""

    def __init__(self, tmp_path, outcomes, **kwargs):
        kwargs.setdefault("config", RetrainConfig(max_retries=2,
                                                  backoff_s=0.01))
        super().__init__(tmp_path, **kwargs)
        self.outcomes = list(outcomes)
        self.calls = 0

    def _retrain_once(self, model, parent, new_generation, arch, offenders,
                      augment_layouts):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return self.checkpoint_root / f"gen-{new_generation:03d}"

    def _validate(self, directory, offenders):
        return {"holdout": 1, "candidate_rmse": 1.0,
                "incumbent_rmse": 100.0, "bound": 50.0}


class TestOrchestratorStateMachine:
    def test_success_promotes_and_resets(self, tmp_path, layout):
        promoted = []
        orch = StubbedOrchestrator(
            tmp_path, ["ok"],
            on_success=lambda *args: promoted.append(args))
        assert orch.request("m", 1, {}, [offender(layout)]) is True
        assert orch.wait(30.0)
        assert orch.status()["state"] == "idle"
        assert orch.status()["successes"] == 1
        assert orch.status()["last_generation"] == 2
        (model, directory, generation, verdict) = promoted[0]
        assert model == "m" and generation == 2
        assert verdict["candidate_rmse"] == 1.0

    def test_transient_errors_retried_then_succeed(self, tmp_path, layout):
        orch = StubbedOrchestrator(
            tmp_path, [RuntimeError("flaky"), RuntimeError("flaky"), "ok"])
        assert orch.request("m", 1, {}, [offender(layout)])
        assert orch.wait(30.0)
        assert orch.calls == 3
        assert orch.status()["state"] == "idle"

    def test_transient_errors_exhaust_to_terminal(self, tmp_path, layout):
        orch = StubbedOrchestrator(
            tmp_path, [RuntimeError("down")] * 3)
        assert orch.request("m", 1, {}, [offender(layout)])
        assert orch.wait(30.0)
        status = orch.status()
        assert status["state"] == "retrain_failed"
        assert "down" in status["last_error"]
        # Terminal state suppresses new requests until reset().
        assert orch.request("m", 1, {}, [offender(layout)]) is False
        orch.reset()
        orch.outcomes = ["ok"]
        assert orch.request("m", 1, {}, [offender(layout)]) is True
        assert orch.wait(30.0)
        assert orch.status()["state"] == "idle"

    def test_validation_failure_is_immediately_terminal(self, tmp_path,
                                                        layout):
        class FailingValidation(StubbedOrchestrator):
            def _validate(self, directory, offenders):
                raise _ValidationFailed({"holdout": 1,
                                         "candidate_rmse": 99.0,
                                         "incumbent_rmse": 1.0,
                                         "bound": 50.0})

        orch = FailingValidation(tmp_path, ["ok", "ok", "ok"])
        assert orch.request("m", 1, {}, [offender(layout)])
        assert orch.wait(30.0)
        assert orch.calls == 1  # deterministic failure: no retries
        status = orch.status()
        assert status["state"] == "retrain_failed"
        assert status["last_validation"]["candidate_rmse"] == 99.0

    def test_concurrent_request_suppressed(self, tmp_path, layout):
        gate = threading.Event()

        class Blocking(StubbedOrchestrator):
            def _retrain_once(self, *args):
                gate.wait(10.0)
                return super()._retrain_once(*args)

        orch = Blocking(tmp_path, ["ok"])
        assert orch.request("m", 1, {}, [offender(layout)]) is True
        assert orch.request("m", 1, {}, [offender(layout)]) is False
        gate.set()
        assert orch.wait(30.0)

    def test_empty_offenders_refused(self, tmp_path):
        orch = StubbedOrchestrator(tmp_path, [])
        assert orch.request("m", 1, {}, []) is False

    def test_swap_callback_failure_is_terminal(self, tmp_path, layout):
        def refuse(*args):
            raise ValueError("generation must increase")

        orch = StubbedOrchestrator(tmp_path, ["ok"], on_success=refuse)
        assert orch.request("m", 1, {}, [offender(layout)])
        assert orch.wait(30.0)
        status = orch.status()
        assert status["state"] == "retrain_failed"
        assert "swap failed" in status["last_error"]

    def test_trip_during_swap_round_trip_does_not_deadlock(self, tmp_path,
                                                           layout):
        """In process mode the swap's worker control round-trip hands any
        queued residual frame to the drift window on the retrain thread
        itself.  A frame that trips a second model's window re-enters
        ``request()`` there: it must be suppressed, not deadlock."""
        manager = LifecycleManager(
            ServeConfig(shadow_sample_rate=0.0, drift_bound=10.0,
                        drift_window=2, drift_trip_count=1,
                        auto_retrain=True),
            checkpoint_root=tmp_path,
            apply_swap=lambda *args: manager.observe_wire(frame))
        frame = ResidualRecord(
            job_id="j2", model="n", generation=1, rmse=100.0,
            max_abs=100.0, sample=offender(layout, job_id="j2")).to_wire()
        orch = manager.orchestrator = StubbedOrchestrator(
            tmp_path, ["ok"], on_success=manager.orchestrator.on_success)
        assert orch.request("m", 1, {}, [offender(layout)])
        assert orch.wait(30.0), "retrain thread deadlocked in its own swap"
        status = orch.status()
        assert status["state"] == "idle"
        assert status["successes"] == 1 and status["runs"] == 1
        assert manager.window.status()["n"]["trips"] == 1
        assert manager.generation_of("m") == 2


class TestDeterministicRetrain:
    def test_byte_identical_checkpoints_for_fixed_seed(self, tmp_path,
                                                       layout):
        """Same offenders + same seed => byte-identical gen directory."""
        config = RetrainConfig(samples=3, epochs=2, seed=7, batch_size=2,
                               tile_rows=8, tile_cols=8, n_workers=2)
        simulator = CmpSimulator()
        offenders = [offender(layout)]
        directories = []
        for run in ("a", "b"):
            orch = RetrainOrchestrator(tmp_path / run, config,
                                       simulator=simulator)
            directories.append(orch._retrain_once(
                "m", 1, 2, {"base_channels": 4, "depth": 1},
                offenders, []))
        for name in ("unet.npz", "surrogate.json"):
            first = (directories[0] / name).read_bytes()
            second = (directories[1] / name).read_bytes()
            assert first == second, f"{name} differs between retrains"

    def test_validation_passes_against_weak_incumbent(self, tmp_path,
                                                      layout):
        """A real tiny retrain beats an incumbent with huge residuals."""
        config = RetrainConfig(samples=3, epochs=2, seed=7, batch_size=2,
                               tile_rows=8, tile_cols=8, n_workers=2,
                               validation_bound=25.0)
        simulator = CmpSimulator()
        sim_heights = simulator.simulate_layout(layout).height
        bad = offender(layout, rmse=1e9)
        bad.fill = np.zeros_like(bad.fill)
        bad.sim_heights = np.asarray(sim_heights, dtype=float)
        orch = RetrainOrchestrator(tmp_path, config, simulator=simulator)
        directory = orch._retrain_once(
            "m", 1, 2, {"base_channels": 4, "depth": 1}, [bad], [])
        verdict = orch._validate(directory, [bad])
        assert verdict["candidate_rmse"] < verdict["incumbent_rmse"]
