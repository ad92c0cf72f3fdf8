"""Tests for surrogate checkpointing (save/load + rebinding)."""

import json

import numpy as np
import pytest

from repro.layout import make_design_a, make_design_b
from repro.surrogate import (
    PlanarityWeights,
    bind_surrogate,
    load_surrogate,
    load_surrogate_bundle,
    save_surrogate,
)


class TestSurrogatePersistence:
    def test_roundtrip_predictions_identical(self, trained_surrogate, tmp_path,
                                             small_layout):
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        back = load_surrogate(tmp_path / "ckpt", small_layout)
        fill = 0.4 * small_layout.slack_stack()
        np.testing.assert_allclose(
            back.predict_heights(fill), net.predict_heights(fill)
        )

    def test_rebind_to_other_layout(self, trained_surrogate, tmp_path):
        """Fully convolutional: a checkpoint binds to any layout size."""
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        other = make_design_b(rows=12, cols=14)
        back = load_surrogate(tmp_path / "ckpt", other)
        heights = back.predict_heights()
        assert heights.shape == other.shape
        assert np.all(np.isfinite(heights))

    def test_evaluate_after_reload(self, trained_surrogate, tmp_path):
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        layout = make_design_a(rows=8, cols=8)
        back = load_surrogate(tmp_path / "ckpt", layout)
        w = PlanarityWeights(0.2, 1e4, 0.2, 1e5, 0.15, 100.0)
        ev = back.evaluate(np.zeros(layout.shape), w)
        assert np.isfinite(ev.s_plan)
        assert ev.gradient.shape == layout.shape

    def test_missing_checkpoint_raises(self, tmp_path, small_layout):
        with pytest.raises(FileNotFoundError):
            load_surrogate(tmp_path / "nope", small_layout)


class TestDiagnostics:
    """Loading failures name the attempted path; provenance is recorded."""

    @pytest.fixture()
    def checkpoint(self, trained_surrogate, tmp_path):
        net = trained_surrogate
        return save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                              base_channels=6, depth=2)

    def test_missing_directory_names_path(self, tmp_path, small_layout):
        missing = tmp_path / "nowhere"
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_surrogate(missing, small_layout)

    def test_partial_checkpoint_names_missing_file(self, checkpoint,
                                                   small_layout):
        (checkpoint / "unet.npz").unlink()
        with pytest.raises(FileNotFoundError) as excinfo:
            load_surrogate(checkpoint, small_layout)
        message = str(excinfo.value)
        assert "partial surrogate checkpoint" in message
        assert str(checkpoint) in message
        assert "unet.npz" in message

    def test_corrupt_metadata_raises_value_error(self, checkpoint,
                                                 small_layout):
        (checkpoint / "surrogate.json").write_text("{broken")
        with pytest.raises(ValueError, match="corrupt"):
            load_surrogate(checkpoint, small_layout)

    @pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
    def test_corrupt_weights_raise_value_error(self, checkpoint, keep,
                                               small_layout):
        weights = checkpoint / "unet.npz"
        data = weights.read_bytes()
        weights.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(ValueError, match="corrupt surrogate weights") \
                as excinfo:
            load_surrogate_bundle(checkpoint)
        assert str(weights) in str(excinfo.value)

    def test_metadata_missing_key_raises_value_error(self, checkpoint,
                                                     small_layout):
        meta = json.loads((checkpoint / "surrogate.json").read_text())
        del meta["arch"]
        (checkpoint / "surrogate.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="missing key"):
            load_surrogate(checkpoint, small_layout)

    def test_numpy_version_recorded(self, checkpoint):
        meta = json.loads((checkpoint / "surrogate.json").read_text())
        assert meta["numpy"] == np.__version__

    def test_numpy_mismatch_warns(self, checkpoint, small_layout):
        meta = json.loads((checkpoint / "surrogate.json").read_text())
        meta["numpy"] = "0.0.1"
        (checkpoint / "surrogate.json").write_text(json.dumps(meta))
        with pytest.warns(RuntimeWarning, match="0.0.1"):
            load_surrogate(checkpoint, small_layout)

    def test_matching_numpy_does_not_warn(self, checkpoint, small_layout):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_surrogate(checkpoint, small_layout)


class TestBundleSplit:
    """Warm-load once, bind many times (the repro.serve registry path)."""

    def test_bundle_binds_to_multiple_layouts(self, trained_surrogate,
                                              tmp_path):
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        bundle = load_surrogate_bundle(tmp_path / "ckpt")
        assert bundle.arch["base_channels"] == 6
        for layout in (make_design_a(rows=8, cols=8),
                       make_design_b(rows=12, cols=10)):
            bound = bind_surrogate(bundle, layout)
            assert bound.predict_heights().shape == layout.shape

    def test_bound_matches_direct_load(self, trained_surrogate, tmp_path,
                                       small_layout):
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        direct = load_surrogate(tmp_path / "ckpt", small_layout)
        via_bundle = bind_surrogate(
            load_surrogate_bundle(tmp_path / "ckpt"), small_layout)
        fill = 0.3 * small_layout.slack_stack()
        np.testing.assert_array_equal(
            via_bundle.predict_heights(fill), direct.predict_heights(fill))


class TestAtomicWrites:
    """Crash-safety and byte-determinism of checkpoint persistence."""

    def test_overwrite_crash_leaves_old_checkpoint_intact(
            self, trained_surrogate, tmp_path, small_layout, monkeypatch):
        """A crash between temp write and rename never tears a file."""
        import os as os_module

        from repro.surrogate import persist as persist_module

        net = trained_surrogate
        directory = save_surrogate(tmp_path / "ckpt", net.unet,
                                   net.normalizer, base_channels=6, depth=2)
        before = {name: (directory / name).read_bytes()
                  for name in ("surrogate.json", "unet.npz")}

        real_replace = os_module.replace

        def crash_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(persist_module.os, "replace", crash_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_surrogate(directory, net.unet, net.normalizer,
                           base_channels=6, depth=2)
        monkeypatch.setattr(persist_module.os, "replace", real_replace)

        # Old bytes untouched, no temp litter, checkpoint still loads.
        for name, payload in before.items():
            assert (directory / name).read_bytes() == payload
        assert sorted(p.name for p in directory.iterdir()) \
            == ["surrogate.json", "unet.npz"]
        load_surrogate(directory, small_layout)

    def test_weights_land_before_metadata(self, trained_surrogate,
                                          tmp_path, monkeypatch):
        """surrogate.json is written last — it is the completion marker."""
        from repro.surrogate import persist as persist_module

        order = []
        real_write = persist_module._atomic_write_bytes

        def spy(path, data):
            order.append(path.name)
            real_write(path, data)

        monkeypatch.setattr(persist_module, "_atomic_write_bytes", spy)
        net = trained_surrogate
        save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                       base_channels=6, depth=2)
        assert order == ["unet.npz", "surrogate.json"]

    def test_deterministic_bytes_across_saves(self, trained_surrogate,
                                              tmp_path):
        """Same weights always serialize to identical bytes (no zip
        wall-clock timestamps)."""
        net = trained_surrogate
        a = save_surrogate(tmp_path / "a", net.unet, net.normalizer,
                           base_channels=6, depth=2)
        b = save_surrogate(tmp_path / "b", net.unet, net.normalizer,
                           base_channels=6, depth=2)
        assert (a / "unet.npz").read_bytes() == (b / "unet.npz").read_bytes()
        assert (a / "surrogate.json").read_bytes() \
            == (b / "surrogate.json").read_bytes()
