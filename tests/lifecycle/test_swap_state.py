"""LifecycleManager + persisted swap-state tests (no serve layer).

The manager is exercised with injected fakes for everything the serve
layer normally provides (``apply_swap``, ``model_info``,
``journal_reader``), which is exactly the decoupling the module
promises: lifecycle never imports serve.
"""

import json

import pytest

from repro.lifecycle import (
    LifecycleManager,
    ResidualRecord,
    STATE_FILENAME,
    read_state,
    write_state,
)
from repro.serve import ServeConfig


def lifecycle_config(**overrides):
    defaults = dict(shadow_sample_rate=0.0, drift_bound=10.0,
                    drift_window=4, drift_trip_count=2, auto_retrain=False)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def residual(model="m", rmse=0.0, generation=1, job_id="j"):
    return ResidualRecord(job_id=job_id, model=model, generation=generation,
                          rmse=rmse, max_abs=rmse)


class TestStateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / STATE_FILENAME
        write_state(path, {"models": {"m": {"generation": 3}}})
        assert read_state(path) == {"models": {"m": {"generation": 3}}}

    def test_missing_and_corrupt_read_as_none(self, tmp_path):
        assert read_state(tmp_path / "absent.json") is None
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert read_state(corrupt) is None
        not_dict = tmp_path / "list.json"
        not_dict.write_text("[1, 2]")
        assert read_state(not_dict) is None

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / STATE_FILENAME
        write_state(path, {"generation": 1})
        write_state(path, {"generation": 2})
        assert read_state(path) == {"generation": 2}
        assert [p.name for p in tmp_path.iterdir()] == [STATE_FILENAME]


class TestGenerationBookkeeping:
    def test_defaults_to_generation_one(self):
        manager = LifecycleManager(lifecycle_config())
        assert manager.generation_of("never-seen") == 1

    def test_note_swap_persists_and_restores(self, tmp_path):
        ckpt = tmp_path / "gen-002"
        ckpt.mkdir()
        (ckpt / "surrogate.json").write_text("{}")
        state_path = tmp_path / STATE_FILENAME
        manager = LifecycleManager(lifecycle_config(),
                                   state_path=state_path)
        manager.set_generation("m", 1, str(tmp_path / "boot"))
        manager.note_swap("m", str(ckpt), 2)
        assert manager.generation_of("m") == 2

        fresh = LifecycleManager(lifecycle_config(), state_path=state_path)
        restored = fresh.restore()
        assert restored == {"m": (str(ckpt), 2)}
        assert fresh.generation_of("m") == 2

    def test_restore_skips_vanished_checkpoints(self, tmp_path):
        state_path = tmp_path / STATE_FILENAME
        write_state(state_path, {"models": {
            "gone": {"directory": str(tmp_path / "deleted"),
                     "generation": 5}}})
        manager = LifecycleManager(lifecycle_config(),
                                   state_path=state_path)
        assert manager.restore() == {}

    def test_status_reports_swap_counts(self, tmp_path):
        ckpt = tmp_path / "gen-002"
        ckpt.mkdir()
        (ckpt / "surrogate.json").write_text("{}")
        manager = LifecycleManager(lifecycle_config())
        manager.note_swap("m", str(ckpt), 2)
        status = manager.status()
        assert status["generations"]["m"]["swaps"] == 1
        assert status["generations"]["m"]["generation"] == 2
        assert status["auto_retrain"] is False


class TestResidualIntake:
    def test_observe_wire_rejects_garbage(self):
        class Stats:
            def __init__(self):
                self.counters = {}

            def incr(self, name, value=1):
                self.counters[name] = self.counters.get(name, 0) + value

            def set_gauge(self, name, value):
                pass

        stats = Stats()
        manager = LifecycleManager(lifecycle_config(), stats=stats)
        manager.observe_wire({"kind": "residual"})  # missing fields
        assert stats.counters["lifecycle.bad_residual_frames"] == 1

    def test_observe_wire_feeds_drift_window(self):
        manager = LifecycleManager(lifecycle_config())
        wire = residual(rmse=99.0).to_wire()
        manager.observe_wire(dict(wire, kind="residual"))
        assert manager.window.status()["m"]["window_exceeded"] == 1


class TestTripPlumbing:
    def test_trip_gathers_arch_and_journal_layouts(self, tmp_path):
        requests = {}

        class StubOrchestrator:
            def __init__(self):
                self.requests = []

            def request(self, model, generation, arch, offenders,
                        augment_layouts=None):
                self.requests.append(
                    (model, generation, arch, offenders, augment_layouts))
                return True

        layout_dict = {"name": "inline", "windows": []}

        manager = LifecycleManager(
            lifecycle_config(),
            model_info=lambda name: {"arch": {"base_channels": 4,
                                              "depth": 1}},
            journal_reader=lambda ids: {
                i: {"params": {"layout": layout_dict}} for i in ids})
        manager.orchestrator = StubOrchestrator()
        manager.set_generation("m", 3)

        from repro.lifecycle import OffenderSample
        import numpy as np
        sample = OffenderSample(job_id="j9", model="m", generation=3,
                                layout=layout_dict,
                                fill=np.zeros((1, 2, 2)),
                                sim_heights=np.zeros((2, 2)), rmse=99.0)
        manager._on_trip("m", [sample])
        (model, generation, arch, offenders, augment) = \
            manager.orchestrator.requests[0]
        assert model == "m" and generation == 3
        assert arch == {"base_channels": 4, "depth": 1}
        assert offenders == [sample]
        assert augment == [layout_dict]

    def test_trip_without_orchestrator_is_noop(self):
        manager = LifecycleManager(lifecycle_config())
        manager._on_trip("m", [])  # must not raise

    def test_retrain_success_applies_swap_then_records(self, tmp_path):
        applied = []
        manager = LifecycleManager(
            lifecycle_config(),
            apply_swap=lambda m, d, g: applied.append((m, d, g)))
        manager.set_generation("m", 1)
        ckpt = tmp_path / "gen-002"
        ckpt.mkdir()
        (ckpt / "surrogate.json").write_text("{}")
        manager._on_retrain_success("m", str(ckpt), 2, {"holdout": 1})
        assert applied == [("m", str(ckpt), 2)]
        assert manager.generation_of("m") == 2


class TestConstructionGuards:
    def test_shadow_needs_simulator(self):
        with pytest.raises(ValueError):
            LifecycleManager(lifecycle_config(shadow_sample_rate=1.0),
                             simulator=None, local_shadow=True)

    def test_auto_retrain_needs_checkpoint_root(self):
        with pytest.raises(ValueError):
            LifecycleManager(lifecycle_config(auto_retrain=True),
                             checkpoint_root=None)

    def test_serve_config_validates_lifecycle_knobs(self):
        with pytest.raises(ValueError):
            ServeConfig(shadow_sample_rate=1.5)
        with pytest.raises(ValueError):
            ServeConfig(drift_bound=0.0)
        with pytest.raises(ValueError):
            ServeConfig(drift_window=0)
        with pytest.raises(ValueError):
            ServeConfig(drift_window=4, drift_trip_count=5)
        with pytest.raises(ValueError):
            ServeConfig(retrain_samples=1)
