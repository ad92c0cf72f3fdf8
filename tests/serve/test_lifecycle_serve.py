"""FillServer lifecycle integration: hot swap, journal generations, e2e.

Covers the serve-side half of the lifecycle subsystem:

* zero-cost guarantee when shadowing is disabled (the default);
* the ``swap`` op — generation-aware, no-drain, journalled;
* generation tags on served results and journal ``done`` entries,
  including replay across generations after a crash, in thread and
  process mode;
* the closed loop: degraded surrogate -> shadow residuals -> drift trip
  -> background retrain -> validated hot swap to generation 2;
* process mode: swaps reach every forked child, and residuals of idle
  children reach the drift window.
"""

import json
import multiprocessing
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.layout.designs import DESIGN_BUILDERS
from repro.layout.io import layout_to_dict
from repro.serve import (
    FillServer,
    JobJournal,
    ModelRegistry,
    ServeConfig,
    encode,
    parse_request,
)
from repro.surrogate import save_surrogate
from repro.surrogate.network import HeightNormalizer

from .test_procpool import _gate_execute, _wait_until


@pytest.fixture(scope="module")
def layout():
    return DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3)


@pytest.fixture(scope="module")
def layout_dict(layout):
    return layout_to_dict(layout)


@pytest.fixture(scope="module")
def tiny_net(layout):
    from repro.surrogate import TrainConfig, pretrain_surrogate
    network, _, _ = pretrain_surrogate(
        [layout], layout, sample_count=3, tile_rows=8, tile_cols=8,
        base_channels=4, depth=1, config=TrainConfig(epochs=2, batch_size=2),
        simulator=CmpSimulator(), seed=7)
    return network


@pytest.fixture(scope="module")
def ckpt_gen1(tiny_net, tmp_path_factory):
    directory = tmp_path_factory.mktemp("lifecycle") / "gen1"
    return str(save_surrogate(directory, tiny_net.unet, tiny_net.normalizer,
                              base_channels=4, depth=1))


@pytest.fixture(scope="module")
def ckpt_gen2(tiny_net, tmp_path_factory):
    directory = tmp_path_factory.mktemp("lifecycle") / "gen2"
    return str(save_surrogate(directory, tiny_net.unet, tiny_net.normalizer,
                              base_channels=4, depth=1,
                              extra_meta={"generation": 2}))


@pytest.fixture(scope="module")
def ckpt_degraded(tiny_net, tmp_path_factory):
    """Same weights, sabotaged normalizer: predictions off by ~5000 A."""
    directory = tmp_path_factory.mktemp("lifecycle") / "degraded"
    broken = HeightNormalizer(mean=tiny_net.normalizer.mean + 5000.0,
                              std=tiny_net.normalizer.std)
    return str(save_surrogate(directory, tiny_net.unet, broken,
                              base_channels=4, depth=1))


class Collector:
    def __init__(self):
        self.messages = []
        self._cond = threading.Condition()

    def __call__(self, message):
        with self._cond:
            self.messages.append(message)
            self._cond.notify_all()

    def wait_for(self, rid, status, timeout=120.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for message in self.messages:
                    if message.get("id") == rid \
                            and message.get("status") == status:
                        return message
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"no {status!r} for {rid!r}; got {self.messages}")
                self._cond.wait(remaining)


def submit(server, collector, rid, op="fill", params=None):
    server.handle_line(
        encode({"id": rid, "op": op, "params": params or {}}), collector)


def fill_params(layout_dict, **extra):
    params = {"layout": layout_dict, "method": "neurfill-pkb", "model": "m",
              "seed": 0, "max_evaluations": 40, "top_k": 1,
              "return_fill": True, "score": False}
    params.update(extra)
    return params


class TestZeroCostWhenDisabled:
    def test_no_lifecycle_objects_by_default(self, ckpt_gen1):
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(registry=registry,
                            serve_config=ServeConfig(workers=1, max_batch=1))
        try:
            assert server.lifecycle is None
            assert server.executor.shadow is None
            assert "lifecycle" not in server.stats_snapshot()
        finally:
            server.start()
            server.shutdown(timeout=10.0)

    def test_lifecycle_op_reports_disabled(self, ckpt_gen1):
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(registry=registry,
                            serve_config=ServeConfig(workers=1, max_batch=1))
        server.start()
        try:
            collector = Collector()
            submit(server, collector, "l1", op="lifecycle")
            result = collector.wait_for("l1", "done")["result"]
            assert result["enabled"] is False
            assert result["models"]["m"]["generation"] == 1
        finally:
            server.shutdown(timeout=10.0)


class TestSwapOp:
    @pytest.fixture()
    def server(self, ckpt_gen1, tmp_path):
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        instance = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=2, max_batch=1,
                                     drain_timeout_s=60.0),
            journal_path=str(tmp_path / "journal.jsonl"))
        instance.start()
        yield instance
        if not instance.shutdown_complete:
            instance.shutdown(timeout=30.0)

    def test_generations_tag_results_and_journal(self, server, layout_dict,
                                                 ckpt_gen2, tmp_path):
        collector = Collector()
        submit(server, collector, "j1", params=fill_params(layout_dict))
        first = collector.wait_for("j1", "done")
        assert first["result"]["generation"] == 1

        submit(server, collector, "sw1", op="swap",
               params={"model": "m", "directory": ckpt_gen2})
        swap_reply = collector.wait_for("sw1", "done")
        assert swap_reply["result"] == {"model": "m", "generation": 2}

        submit(server, collector, "j2", params=fill_params(layout_dict))
        second = collector.wait_for("j2", "done")
        assert second["result"]["generation"] == 2

        server.shutdown(timeout=30.0)
        journal_path = tmp_path / "journal.jsonl"
        dones = {entry["id"]: entry
                 for entry in JobJournal.read_dones(journal_path)}
        assert dones["j1"]["generation"] == 1
        assert dones["j2"]["generation"] == 2
        events = [json.loads(line)
                  for line in journal_path.read_text().splitlines()]
        swaps = [e for e in events if e.get("event") == "swap"]
        assert swaps and swaps[0]["model"] == "m" \
            and swaps[0]["generation"] == 2

    def test_pre_swap_results_bitwise_match_one_shot(self, server,
                                                     layout, layout_dict,
                                                     ckpt_gen1):
        """Serving under generation 1 is bitwise the one-shot pipeline."""
        from repro.core import FillProblem, ScoreCoefficients
        from repro.core.neurfill import NeurFill
        from repro.optimize.sqp import SqpOptimizer
        from repro.surrogate import load_surrogate

        collector = Collector()
        submit(server, collector, "jp", params=fill_params(layout_dict))
        served = np.array(
            collector.wait_for("jp", "done")["result"]["fill"])

        simulator = CmpSimulator()
        problem = FillProblem(
            layout, ScoreCoefficients.calibrated(layout, simulator))
        direct = NeurFill(
            problem, load_surrogate(ckpt_gen1, layout),
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
            simulator=simulator,
        ).run("neurfill-pkb", seed=0, max_evaluations=40, top_k=1)
        np.testing.assert_array_equal(served, direct.fill)

    def test_non_monotonic_swap_rejected(self, server, ckpt_gen1):
        collector = Collector()
        submit(server, collector, "sw-bad", op="swap",
               params={"model": "m", "directory": ckpt_gen1,
                       "generation": 1})
        reply = collector.wait_for("sw-bad", "error")
        assert "increase" in reply["error"]
        assert server.stats.snapshot()["counters"]["swap_rejected"] == 1

    def test_swap_unknown_model_rejected(self, server, ckpt_gen2):
        collector = Collector()
        submit(server, collector, "sw-ghost", op="swap",
               params={"model": "ghost", "directory": ckpt_gen2})
        assert "ghost" in collector.wait_for("sw-ghost", "error")["error"]


class TestNoDrainSwap:
    def test_inflight_job_finishes_on_old_generation(self, ckpt_gen1,
                                                     ckpt_gen2, layout_dict,
                                                     monkeypatch):
        """A swap mid-execution never drains: the in-flight job completes
        on generation 1 while the very next admission binds generation 2.
        """
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=2, max_batch=1,
                                     drain_timeout_s=60.0))
        server.start()
        bound = threading.Event()
        release = threading.Event()
        original = server.executor._coalesced_network

        def gated(model_name, layout, fingerprint):
            network, model = original(model_name, layout, fingerprint)
            bound.set()
            release.wait(30.0)
            return network, model

        monkeypatch.setattr(server.executor, "_coalesced_network", gated)
        try:
            collector = Collector()
            submit(server, collector, "inflight",
                   params=fill_params(layout_dict))
            assert bound.wait(30.0), "job never reached the bind point"
            monkeypatch.setattr(server.executor, "_coalesced_network",
                                original)
            # Swap while the job holds its generation-1 binding.
            assert server.swap_model("m", ckpt_gen2) == 2
            release.set()
            done = collector.wait_for("inflight", "done")
            assert done["result"]["generation"] == 1
            submit(server, collector, "after",
                   params=fill_params(layout_dict))
            assert collector.wait_for(
                "after", "done")["result"]["generation"] == 2
        finally:
            release.set()
            server.shutdown(timeout=30.0)


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process worker tests need the fork start method")


def _replay_on_restored_generation(ckpt_gen1, ckpt_gen2, layout_dict,
                                   tmp_path, worker_mode):
    """Crash journal holds a gen-1 done, a swap marker and a pending job;
    the restarted server must restore generation 2 from lifecycle state
    and the replayed job must complete tagged with it."""
    from repro.lifecycle import STATE_FILENAME, write_state

    journal_path = tmp_path / "journal.jsonl"
    journal = JobJournal(journal_path)
    done_request = parse_request(encode(
        {"id": "old", "op": "fill", "params": fill_params(layout_dict)}))
    journal.record_accept(done_request)
    journal.record_done("old", "done", generation=1)
    journal.record_swap("m", 2, ckpt_gen2)
    pending = parse_request(encode(
        {"id": "resume-me", "op": "fill",
         "params": fill_params(layout_dict)}))
    journal.record_accept(pending)
    journal.close()

    lifecycle_dir = tmp_path / "lifecycle"
    lifecycle_dir.mkdir()
    write_state(lifecycle_dir / STATE_FILENAME, {"models": {
        "m": {"directory": ckpt_gen2, "generation": 2, "swaps": 1}}})

    registry = ModelRegistry()
    registry.register("m", ckpt_gen1)  # boot checkpoint: generation 1
    server = FillServer(
        registry=registry,
        serve_config=ServeConfig(workers=1, max_batch=1,
                                 worker_mode=worker_mode,
                                 shadow_sample_rate=1.0,
                                 drift_bound=1e9,
                                 lifecycle_dir=str(lifecycle_dir),
                                 drain_timeout_s=120.0),
        journal_path=str(journal_path))
    try:
        # Restore beat the boot checkpoint before any job ran.
        assert server.registry.generation_of("m") == 2
        assert server.lifecycle_status()["models"]["m"]["generation"] == 2
        server.start()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            dones = {e["id"]: e for e in JobJournal.read_dones(journal_path)}
            if "resume-me" in dones:
                break
            time.sleep(0.05)
        assert dones["resume-me"]["status"] == "done"
        assert dones["resume-me"]["generation"] == 2
    finally:
        server.shutdown(timeout=30.0)


class TestJournalReplayAcrossGenerations:
    def test_resumed_job_runs_on_restored_generation(self, ckpt_gen1,
                                                     ckpt_gen2, layout_dict,
                                                     tmp_path):
        _replay_on_restored_generation(ckpt_gen1, ckpt_gen2, layout_dict,
                                       tmp_path, "thread")

    @fork_only
    def test_forked_children_boot_on_restored_generation(
            self, ckpt_gen1, ckpt_gen2, layout_dict, tmp_path):
        _replay_on_restored_generation(ckpt_gen1, ckpt_gen2, layout_dict,
                                       tmp_path, "process")

    def test_stale_state_for_vanished_checkpoint_is_ignored(self, ckpt_gen1,
                                                            tmp_path):
        from repro.lifecycle import STATE_FILENAME, write_state

        lifecycle_dir = tmp_path / "lifecycle"
        lifecycle_dir.mkdir()
        write_state(lifecycle_dir / STATE_FILENAME, {"models": {
            "m": {"directory": str(tmp_path / "deleted"), "generation": 7}}})
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=1, max_batch=1,
                                     shadow_sample_rate=1.0,
                                     drift_bound=1e9,
                                     lifecycle_dir=str(lifecycle_dir)))
        try:
            assert server.registry.generation_of("m") == 1
        finally:
            server.start()
            server.shutdown(timeout=10.0)


class TestClosedLoopEndToEnd:
    def test_drift_retrain_hot_swap_to_generation_two(self, ckpt_degraded,
                                                      layout_dict,
                                                      tmp_path):
        """The full loop: a degraded surrogate's shadow residuals trip the
        drift window, the background retrain produces a validated gen-2
        checkpoint, and the server hot-swaps to it with zero dropped jobs.
        """
        registry = ModelRegistry()
        registry.register("m", ckpt_degraded)
        config = ServeConfig(
            workers=2, max_batch=1, drain_timeout_s=120.0,
            # trip_count == number of pre-swap jobs: the window can only
            # trip once all three have completed, so none can race the
            # background swap and come back tagged generation 2.
            shadow_sample_rate=1.0, drift_bound=2000.0,
            drift_window=4, drift_trip_count=3,
            auto_retrain=True, retrain_samples=2, retrain_epochs=1,
            retrain_seed=7, lifecycle_dir=str(tmp_path / "lifecycle"))
        server = FillServer(registry=registry, serve_config=config,
                            journal_path=str(tmp_path / "journal.jsonl"))
        server.start()
        try:
            collector = Collector()
            for i in range(3):
                submit(server, collector, f"pre{i}",
                       params=fill_params(layout_dict))
            pre = [collector.wait_for(f"pre{i}", "done") for i in range(3)]
            assert all(m["result"]["generation"] == 1 for m in pre)

            # Shadow residuals (~5000 A >> bound) must trip the window and
            # drive the retrain + swap in the background.
            deadline = time.monotonic() + 240.0
            while time.monotonic() < deadline:
                status = server.lifecycle_status()
                if status["models"]["m"]["generation"] >= 2:
                    break
                retrain = status.get("retrain") or {}
                assert retrain.get("state") != "retrain_failed", retrain
                time.sleep(0.1)
            status = server.lifecycle_status()
            assert status["models"]["m"]["generation"] == 2, status
            assert server.registry.generation_of("m") == 2
            assert status["retrain"]["successes"] == 1
            verdict = status["retrain"]["last_validation"]
            assert verdict["candidate_rmse"] < verdict["incumbent_rmse"]

            # Post-swap service continues uninterrupted on generation 2...
            submit(server, collector, "post",
                   params=fill_params(layout_dict))
            post = collector.wait_for("post", "done")
            assert post["result"]["generation"] == 2

            # ...and the gen-2 checkpoint carries its lineage.
            gen2_dir = status["generations"]["m"]["directory"]
            meta = json.loads(
                (Path(gen2_dir) / "surrogate.json").read_text())
            assert meta["generation"] == 2
            assert meta["parent_generation"] == 1
            assert meta["seed"] == 7

            # Post-swap residuals improved over the degraded incumbent.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                drift = server.lifecycle_status()["drift"].get("m") or {}
                if drift.get("last_generation") == 2:
                    break
                time.sleep(0.05)
            assert drift.get("last_generation") == 2, drift
            assert drift["last_rmse"] < 5000.0

            counters = server.stats.snapshot()["counters"]
            assert counters.get("error", 0) == 0
            assert counters.get("worker_died", 0) == 0
        finally:
            server.shutdown(timeout=60.0)
        dones = JobJournal.read_dones(tmp_path / "journal.jsonl")
        by_id = {e["id"]: e for e in dones}
        assert all(by_id[f"pre{i}"]["generation"] == 1 for i in range(3))
        assert by_id["post"]["generation"] == 2
        assert all("generation" in e for e in dones)


@fork_only
class TestProcessModeSwap:
    def test_workers_reload_without_respawn(self, ckpt_gen1, ckpt_gen2,
                                            layout_dict):
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=2, max_batch=1,
                                     worker_mode="process",
                                     drain_timeout_s=120.0))
        server.start()
        try:
            collector = Collector()
            submit(server, collector, "j1", params=fill_params(layout_dict))
            assert collector.wait_for(
                "j1", "done")["result"]["generation"] == 1
            pids = sorted(h.process.pid for h in server._pool._handles)

            assert server.swap_model("m", ckpt_gen2) == 2

            submit(server, collector, "j2", params=fill_params(layout_dict))
            assert collector.wait_for(
                "j2", "done")["result"]["generation"] == 2
            assert sorted(h.process.pid
                          for h in server._pool._handles) == pids, \
                "swap must reload in place, not respawn workers"
        finally:
            server.shutdown(timeout=60.0)

    def test_swap_reaches_every_worker(self, ckpt_gen1, ckpt_gen2,
                                       layout_dict, tmp_path, monkeypatch):
        sentinel, markers = _gate_execute(monkeypatch, tmp_path)
        sentinel.unlink()  # open until the post-swap jobs
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=2, max_batch=1,
                                     worker_mode="process",
                                     drain_timeout_s=120.0))
        server.start()  # forks AFTER the patch: children inherit it
        try:
            collector = Collector()
            submit(server, collector, "j1", params=fill_params(layout_dict))
            assert collector.wait_for(
                "j1", "done")["result"]["generation"] == 1
            pids = {h.process.pid for h in server._pool._handles}

            assert server.swap_model("m", ckpt_gen2) == 2

            # Every child — not just j1's — must now serve generation 2:
            # hold two jobs until they sit on distinct children.
            sentinel.write_text("x")
            for rid in ("j2", "j3"):
                submit(server, collector, rid,
                       params=fill_params(layout_dict))
            _wait_until(
                lambda: all(list(markers.glob(f"started-{rid}-*"))
                            for rid in ("j2", "j3")),
                message="both post-swap jobs to start")
            owners = {p.name.rsplit("-", 1)[1]
                      for rid in ("j2", "j3")
                      for p in markers.glob(f"started-{rid}-*")}
            assert owners == {str(pid) for pid in pids}
            sentinel.unlink()
            for rid in ("j2", "j3"):
                assert collector.wait_for(
                    rid, "done")["result"]["generation"] == 2

            # A non-monotonic swap is rejected and changes nothing.
            submit(server, collector, "sw-bad", op="swap",
                   params={"model": "m", "directory": ckpt_gen1,
                           "generation": 2})
            assert "increase" in collector.wait_for(
                "sw-bad", "error")["error"]
            assert server.lifecycle_status()["models"]["m"][
                "generation"] == 2
        finally:
            if sentinel.exists():
                sentinel.unlink()
            server.shutdown(timeout=60.0)


@fork_only
class TestProcessModeResiduals:
    def test_idle_child_residual_reaches_drift_window(self, ckpt_gen1,
                                                      layout_dict):
        """A child sends its shadow residual after the result frame; the
        pool must forward it without waiting for the child's next job."""
        registry = ModelRegistry()
        registry.register("m", ckpt_gen1)
        server = FillServer(
            registry=registry,
            serve_config=ServeConfig(workers=1, max_batch=1,
                                     worker_mode="process",
                                     shadow_sample_rate=1.0,
                                     drift_bound=1e9))
        server.start()
        try:
            collector = Collector()
            submit(server, collector, "j1", params=fill_params(layout_dict))
            collector.wait_for("j1", "done")
            deadline = time.monotonic() + 10.0
            drift = {}
            while time.monotonic() < deadline:
                drift = server.lifecycle_status()["drift"].get("m") or {}
                if drift.get("observed"):
                    break
                time.sleep(0.05)
            assert drift.get("observed") == 1, drift
        finally:
            server.shutdown(timeout=60.0)
