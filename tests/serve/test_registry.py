"""Tests for the warm-loading model registry and its bound-network LRU."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.layout import make_design_a, make_design_b
from repro.serve import ModelRegistry, layout_fingerprint
from repro.surrogate import save_surrogate


def overwrite_in_place(checkpoint, source):
    """Copy checkpoint ``source`` over ``checkpoint`` file by file.

    Each mtime is bumped so the stamp changes even on coarse-mtime
    filesystems.
    """
    for name in ("surrogate.json", "unet.npz"):
        target = os.path.join(checkpoint, name)
        shutil.copy2(os.path.join(source, name), target)
        stat = os.stat(target)
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


@pytest.fixture()
def checkpoint(trained_surrogate, tmp_path):
    net = trained_surrogate
    return str(save_surrogate(tmp_path / "ckpt", net.unet, net.normalizer,
                              base_channels=6, depth=2))


class TestFingerprint:
    def test_stable_for_equal_content(self):
        a = make_design_a(rows=8, cols=8, seed=3)
        b = make_design_a(rows=8, cols=8, seed=3)
        assert layout_fingerprint(a) == layout_fingerprint(b)

    def test_differs_across_content(self):
        a = make_design_a(rows=8, cols=8, seed=3)
        b = make_design_a(rows=8, cols=8, seed=4)
        assert layout_fingerprint(a) != layout_fingerprint(b)


class TestRegistration:
    def test_register_warm_loads(self, checkpoint):
        registry = ModelRegistry()
        model = registry.register("pkb", checkpoint)
        assert model.bundle.arch["base_channels"] == 6
        assert "pkb" in registry
        assert registry.names() == ["pkb"]
        assert registry.describe()["pkb"]["directory"] == checkpoint

    def test_register_spec(self, checkpoint):
        registry = ModelRegistry()
        assert registry.register_spec(f"pkb={checkpoint}").name == "pkb"
        with pytest.raises(ValueError, match="NAME=CHECKPOINT_DIR"):
            registry.register_spec("no-equals-sign")

    def test_bad_checkpoint_fails_at_registration(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(FileNotFoundError):
            registry.register("pkb", tmp_path / "nope")
        assert len(registry) == 0

    def test_unknown_model_lists_registered(self, checkpoint):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        with pytest.raises(KeyError, match="pkb"):
            registry.network_for("ghost", make_design_a(rows=8, cols=8))


class TestBinding:
    def test_network_for_caches_per_layout(self, checkpoint):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        layout = make_design_a(rows=8, cols=8)
        first = registry.network_for("pkb", layout)
        second = registry.network_for("pkb", layout)
        assert first is second

    def test_distinct_layouts_get_distinct_bindings(self, checkpoint):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        a = registry.network_for("pkb", make_design_a(rows=8, cols=8))
        b = registry.network_for("pkb", make_design_b(rows=10, cols=12))
        assert a is not b
        assert a.predict_heights().shape != b.predict_heights().shape

    def test_lru_eviction_bounds_memory(self, checkpoint):
        registry = ModelRegistry(max_bound=2)
        registry.register("pkb", checkpoint)
        layouts = [make_design_a(rows=8, cols=8, seed=s) for s in range(3)]
        bindings = [registry.network_for("pkb", l) for l in layouts]
        assert len(registry._bound) == 2
        # the oldest binding was evicted; re-requesting makes a fresh one
        again = registry.network_for("pkb", layouts[0])
        assert again is not bindings[0]

    def test_reregister_invalidates_bindings(self, checkpoint):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        layout = make_design_a(rows=8, cols=8)
        old = registry.network_for("pkb", layout)
        registry.register("pkb", checkpoint)  # replaced (same files)
        fresh = registry.network_for("pkb", layout)
        assert fresh is not old

    def test_bindings_share_weights(self, checkpoint):
        """Rebinding reuses the warm UNet — no per-layout weight copies."""
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        a = registry.network_for("pkb", make_design_a(rows=8, cols=8))
        b = registry.network_for("pkb", make_design_b(rows=10, cols=12))
        assert a.unet is b.unet

    def test_bound_prediction_matches_direct_load(self, checkpoint,
                                                  small_layout):
        from repro.surrogate import load_surrogate
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        bound = registry.network_for("pkb", small_layout)
        direct = load_surrogate(checkpoint, small_layout)
        fill = 0.25 * small_layout.slack_stack()
        np.testing.assert_array_equal(bound.predict_heights(fill),
                                      direct.predict_heights(fill))


class TestStampInvalidation:
    """Binding must key on checkpoint *content*, not path alone.

    Regression: an earlier registry cached bound networks by
    (model, fingerprint) only, so a checkpoint overwritten in place at
    the same path kept serving the stale warm copy forever.
    """

    def _altered_copy(self, trained_surrogate, directory):
        """Save a same-arch checkpoint with visibly different weights."""
        import copy

        net = trained_surrogate
        unet = copy.deepcopy(net.unet)
        state = unet.state_dict()
        first = sorted(state)[0]
        state[first] = np.asarray(state[first]) + 0.5
        unet.load_state_dict(state)
        return save_surrogate(directory, unet, net.normalizer,
                              base_channels=6, depth=2)

    def test_in_place_overwrite_is_rebound(self, trained_surrogate,
                                           checkpoint, tmp_path):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        layout = make_design_a(rows=8, cols=8)
        fill = 0.25 * layout.slack_stack()
        before = registry.network_for("pkb", layout).predict_heights(fill)

        overwrite_in_place(checkpoint,
                           self._altered_copy(trained_surrogate,
                                              tmp_path / "v2"))

        after = registry.network_for("pkb", layout).predict_heights(fill)
        assert not np.array_equal(before, after), \
            "overwritten checkpoint was served stale"

    def test_unchanged_checkpoint_stays_cached(self, checkpoint):
        registry = ModelRegistry()
        registry.register("pkb", checkpoint)
        layout = make_design_a(rows=8, cols=8)
        assert registry.network_for("pkb", layout) \
            is registry.network_for("pkb", layout)


class TestOlderCheckpoints:
    def test_generation_tag_is_ignored(self, checkpoint, tmp_path,
                                       small_layout):
        """Checkpoints written by older versions may carry a
        ``generation`` key in ``surrogate.json``; it changes nothing."""
        tagged = tmp_path / "tagged"
        shutil.copytree(checkpoint, tagged)
        meta_path = tagged / "surrogate.json"
        meta = json.loads(meta_path.read_text())
        meta["generation"] = 3
        meta_path.write_text(json.dumps(meta, indent=2))

        registry = ModelRegistry()
        registry.register("plain", checkpoint)
        registry.register("tagged", tagged)
        assert "generation" not in registry.describe()["tagged"]
        fill = 0.25 * small_layout.slack_stack()
        plain = registry.network_for("plain", small_layout)
        old = registry.network_for("tagged", small_layout)
        assert plain.predict_heights(fill).tobytes() \
            == old.predict_heights(fill).tobytes()
