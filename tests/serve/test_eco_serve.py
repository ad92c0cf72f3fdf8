"""Serving incremental (ECO) jobs: validation, worker affinity, parity.

Covers the serve-layer pieces:

* ``validate_job`` admission checks for the ``eco`` op;
* executor-level fill -> eco chaining: the cached-parent path and the
  explicit ``parent_fill`` path must produce bitwise-identical fills,
  and the served result must match a direct in-process ``eco_refill``
  with the serve optimizer settings (the CLI parity guarantee);
* a two-child process pool end to end: each eco job must land on the
  child holding its parent's cached solution.
"""

import multiprocessing

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.core import FillProblem, ScoreCoefficients, eco_refill
from repro.layout import edit_layout, save_layout
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.optimize import SqpOptimizer
from repro.serve import FillServer, ModelRegistry, ServeConfig
from repro.serve.executor import JobExecutor, validate_job
from repro.serve.protocol import Request
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    HeightNormalizer,
    load_surrogate,
    save_surrogate,
)

from .test_procpool import _gate_execute, _wait_until
from .test_server import Collector, submit


@pytest.fixture(scope="module")
def parent_layout():
    return DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3)


@pytest.fixture(scope="module")
def edited_layout(parent_layout):
    return edit_layout(parent_layout, 1, slice(2, 4), slice(2, 4))


@pytest.fixture(scope="module")
def layout_files(parent_layout, edited_layout, tmp_path_factory):
    root = tmp_path_factory.mktemp("eco-serve")
    parent = root / "a.json"
    edited = root / "a_eco.json"
    save_layout(parent_layout, str(parent))
    save_layout(edited_layout, str(edited))
    return str(parent), str(edited)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
    directory = tmp_path_factory.mktemp("eco-serve-ckpt") / "ckpt"
    return str(save_surrogate(directory, unet, HeightNormalizer(2500.0, 300.0),
                              base_channels=4, depth=2))


def eco_request(params, rid="e1"):
    return Request(id=rid, op="eco", params=params)


class TestValidateJob:
    def test_needs_some_parent(self):
        error = validate_job(eco_request({"layout_path": "a.json"}))
        assert "parent_fingerprint" in error

    def test_explicit_fill_needs_parent_layout(self):
        error = validate_job(eco_request(
            {"layout_path": "a.json", "parent_fill": [[[0.0]]]}))
        assert "parent_layout" in error

    def test_fingerprint_alone_is_enough(self):
        assert validate_job(eco_request(
            {"layout_path": "a.json", "parent_fingerprint": "abc"})) is None

    def test_fill_plus_layout_is_enough(self):
        assert validate_job(eco_request(
            {"layout_path": "a.json", "parent_fill": [[[0.0]]],
             "parent_layout_path": "parent.json"})) is None

    def test_needs_model_when_training_disabled(self):
        error = validate_job(eco_request(
            {"layout_path": "a.json", "parent_fingerprint": "abc"}),
            allow_train=False)
        assert "model" in error


class TestExecutorEcoJobs:
    @pytest.fixture()
    def executor(self, checkpoint):
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        executor = JobExecutor(registry=registry, allow_train=False)
        yield executor
        executor.close()

    def run_fill(self, executor, layout_path):
        return executor.execute(Request(
            id="f1", op="fill",
            params={"layout_path": layout_path, "method": "neurfill-pkb",
                    "model": "m", "return_fill": True}))

    def test_fill_payload_carries_fingerprint(self, executor, layout_files):
        payload = self.run_fill(executor, layout_files[0])
        assert isinstance(payload.get("layout_fingerprint"), str)
        assert executor.solution_for(payload["layout_fingerprint"]) is not None

    def test_cached_and_explicit_parents_agree_bitwise(
            self, executor, layout_files):
        parent_path, edited_path = layout_files
        fill_payload = self.run_fill(executor, parent_path)
        fingerprint = fill_payload["layout_fingerprint"]

        cached = executor.execute(Request(
            id="e1", op="eco",
            params={"layout_path": edited_path, "model": "m",
                    "parent_fingerprint": fingerprint, "return_fill": True}))
        explicit = executor.execute(Request(
            id="e2", op="eco",
            params={"layout_path": edited_path, "model": "m",
                    "parent_fill": fill_payload["fill"],
                    "parent_layout_path": parent_path,
                    "return_fill": True}))
        assert cached["method"] == "neurfill-eco"
        assert not cached["eco"]["cache_hit"]
        assert cached["eco"]["dirty_windows"] == 4
        np.testing.assert_array_equal(np.asarray(cached["fill"]),
                                      np.asarray(explicit["fill"]))

    def test_served_eco_matches_direct_eco_refill(
            self, executor, layout_files, checkpoint,
            parent_layout, edited_layout):
        parent_path, edited_path = layout_files
        fill_payload = self.run_fill(executor, parent_path)
        served = executor.execute(Request(
            id="e1", op="eco",
            params={"layout_path": edited_path, "model": "m",
                    "parent_fingerprint": fill_payload["layout_fingerprint"],
                    "return_fill": True}))

        # One-shot equivalent: same checkpoint, same calibrated
        # coefficients, same optimizer budget as the executor.
        coefficients = ScoreCoefficients.calibrated(
            edited_layout, CmpSimulator(), beta_runtime=60.0)
        problem = FillProblem(edited_layout, coefficients)
        network = load_surrogate(checkpoint, edited_layout)
        direct = eco_refill(
            problem, network, parent_layout,
            np.asarray(fill_payload["fill"], dtype=float),
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9))
        np.testing.assert_array_equal(np.asarray(served["fill"]),
                                      direct.fill)
        assert served["quality"] == pytest.approx(direct.quality, abs=1e-12)

    def test_eco_result_is_cached_for_chained_edits(
            self, executor, layout_files, parent_layout, edited_layout):
        parent_path, edited_path = layout_files
        self.run_fill(executor, parent_path)
        first = executor.execute(Request(
            id="e1", op="eco",
            params={"layout_path": edited_path, "model": "m",
                    "parent_fingerprint": layout_fingerprint_of(
                        executor, parent_path)}))
        # Chain a second edit off the first eco's own fingerprint.
        second_layout = edit_layout(edited_layout, 0, slice(5, 6),
                                    slice(5, 6), name_suffix="-eco2")
        from repro.layout import layout_to_dict

        second = executor.execute(Request(
            id="e2", op="eco",
            params={"layout": layout_to_dict(second_layout), "model": "m",
                    "parent_fingerprint": first["layout_fingerprint"]}))
        assert second["method"] == "neurfill-eco"
        assert second["eco"]["dirty_windows"] == 1

    def test_missing_parent_raises_clear_error(self, executor, layout_files):
        with pytest.raises(ValueError, match="not cached on this worker"):
            executor.execute(Request(
                id="e1", op="eco",
                params={"layout_path": layout_files[1], "model": "m",
                        "parent_fingerprint": "no-such-parent"}))


class TestNonFiniteParent:
    def test_served_eco_with_null_parent_entry_ends_in_error(
            self, parent_layout, layout_files, checkpoint):
        parent_path, edited_path = layout_files
        # JSON has no NaN: a null entry decodes to NaN in the fill array.
        parent_fill = np.zeros(parent_layout.shape).tolist()
        parent_fill[1][3][3] = None
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        server = FillServer(registry=registry,
                            serve_config=ServeConfig(workers=1, max_batch=1))
        server.start()
        try:
            collector = Collector()
            submit(server, collector, "nan", op="eco", params={
                "layout_path": edited_path, "model": "m",
                "parent_fill": parent_fill,
                "parent_layout_path": parent_path, "score": False})
            _wait_until(lambda: {"done", "error"} & set(
                collector.statuses("nan")), timeout=120.0,
                message="the eco job to finish")
            assert "done" not in collector.statuses("nan")
            error = collector.wait_for("nan", "error")["error"]
            assert "finite" in error
        finally:
            server.shutdown(timeout=30.0)


def layout_fingerprint_of(executor, path):
    layout, fingerprint = executor._load_layout({"layout_path": path})
    return fingerprint


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process worker tests need the fork start method")
class TestProcessEco:
    def test_eco_lands_on_the_parent_worker(
            self, parent_layout, edited_layout, checkpoint, tmp_path,
            monkeypatch):
        other_parent = DESIGN_BUILDERS["A"](rows=8, cols=8, seed=7)
        other_edited = edit_layout(other_parent, 1, slice(2, 4),
                                   slice(2, 4))
        paths = {}
        for name, layout in (("a", parent_layout), ("a_eco", edited_layout),
                             ("b", other_parent), ("b_eco", other_edited)):
            paths[name] = str(tmp_path / f"{name}.json")
            save_layout(layout, paths[name])
        sentinel, markers = _gate_execute(monkeypatch, tmp_path)
        registry = ModelRegistry()
        registry.register("m", checkpoint)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=2, queue_capacity=8,
                                     max_batch=1, worker_mode="process"))
        server.start()  # forks AFTER the patch: children inherit it
        try:
            collector = Collector()
            # Hold both parent fills until they sit on distinct children,
            # so each parent solution is cached in exactly one child.
            for rid, name in (("fa", "a"), ("fb", "b")):
                submit(server, collector, rid, params={
                    "layout_path": paths[name], "method": "neurfill-pkb",
                    "model": "m"})

            def pids_of(rid):
                return {p.name.rsplit("-", 1)[1]
                        for p in markers.glob(f"started-{rid}-*")}

            _wait_until(lambda: pids_of("fa") and pids_of("fb"),
                        message="both parent fills to start")
            assert pids_of("fa") != pids_of("fb")
            sentinel.unlink()
            fingerprints = {
                rid: collector.wait_for(rid, "done")["result"][
                    "layout_fingerprint"]
                for rid in ("fa", "fb")}

            # One eco at a time: a first-free pick would send both to the
            # same child, and the one whose parent lives elsewhere would
            # fail with "not cached on this worker".
            for rid, name, parent in (("ea", "a_eco", "fa"),
                                      ("eb", "b_eco", "fb")):
                submit(server, collector, rid, op="eco", params={
                    "layout_path": paths[name], "model": "m",
                    "parent_fingerprint": fingerprints[parent]})
                result = collector.wait_for(rid, "done")["result"]
                assert result["method"] == "neurfill-eco"
                assert result["eco"]["dirty_windows"] == 4
                assert pids_of(rid) == pids_of(parent)
        finally:
            if sentinel.exists():
                sentinel.unlink()
            server.shutdown(timeout=30.0)
