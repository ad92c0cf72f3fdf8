"""Process worker mode: parity and crash containment.

These tests fork real worker children.  The crash tests monkeypatch
``JobExecutor.execute`` at class level *before* ``server.start()`` — the
children are forked at start, so they inherit the patch — and gate the
patched body on sentinel files, which gives the parent a deterministic
window to SIGKILL a child mid-job.
"""

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.layout import save_layout
from repro.layout.designs import DESIGN_BUILDERS
from repro.serve import FillServer, ServeConfig
from repro.serve.executor import JobExecutor as ExecutorClass

from .test_server import Collector, submit

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process worker tests need the fork start method",
)

pytestmark = fork_only


@pytest.fixture()
def layout_file(tmp_path):
    path = tmp_path / "a.json"
    save_layout(DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3), str(path))
    return str(path)


def _deterministic(result: dict) -> str:
    """Serialise a fill result minus its wall-clock-dependent fields."""
    result = dict(result)
    result.pop("runtime_s", None)
    if "score" in result:
        # score.overall folds runtime_s in via beta_runtime.
        result["score"] = {k: v for k, v in result["score"].items()
                          if k != "overall"}
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def _wait_until(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


class TestProcessModeParity:
    def test_fill_matches_thread_mode_bitwise(self, layout_file):
        params = {"layout_path": layout_file, "method": "lin",
                  "return_fill": True}
        results = {}
        for mode in ("thread", "process"):
            server = FillServer(serve_config=ServeConfig(
                workers=2, queue_capacity=8, max_batch=1, worker_mode=mode))
            server.start()
            try:
                collector = Collector()
                submit(server, collector, "j1", params=params)
                results[mode] = collector.wait_for("j1", "done")["result"]
            finally:
                server.shutdown(timeout=30.0)
        # The protocol's repr-roundtrip float encoding means equal JSON
        # strings == bitwise-identical fill vectors and metrics.
        assert _deterministic(results["thread"]) == \
            _deterministic(results["process"])
        assert np.array(results["process"]["fill"]).shape == (3, 8, 8)

    def test_job_error_surfaces_identically(self, layout_file):
        params = {"layout_path": layout_file + ".does-not-exist",
                  "method": "lin"}
        errors = {}
        for mode in ("thread", "process"):
            server = FillServer(serve_config=ServeConfig(
                workers=1, queue_capacity=4, max_batch=1, worker_mode=mode))
            server.start()
            try:
                collector = Collector()
                submit(server, collector, "bad", params=params)
                errors[mode] = collector.wait_for("bad", "error")["error"]
            finally:
                server.shutdown(timeout=30.0)
        assert errors["thread"] == errors["process"]

    def test_stats_report_process_workers(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=2, queue_capacity=8, max_batch=1,
            worker_mode="process"))
        server.start()
        try:
            collector = Collector()
            submit(server, collector, "st", op="stats")
            snapshot = collector.wait_for("st", "done")["result"]
            assert snapshot["worker_mode"] == "process"
            workers = snapshot["proc_workers"]
            assert len(workers) == 2
            assert all(w["alive"] for w in workers)
            assert all(w["pid"] not in (None, os.getpid()) for w in workers)
        finally:
            server.shutdown(timeout=30.0)


class TestWorkerCrash:
    def test_sigkill_mid_job_yields_worker_died_and_respawns(
            self, tmp_path, layout_file, monkeypatch):
        sentinel = tmp_path / "hold"
        sentinel.write_text("x")
        markers = tmp_path / "markers"
        markers.mkdir()
        orig = ExecutorClass.execute

        def gated(self, request):
            (markers / f"started-{request.id}-{os.getpid()}").write_text("x")
            while sentinel.exists():
                time.sleep(0.05)
            return orig(self, request)

        monkeypatch.setattr(ExecutorClass, "execute", gated)

        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1,
            worker_mode="process"))
        server.start()  # forks AFTER the patch: children inherit it
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "victim", params=params)
            _wait_until(
                lambda: list(markers.glob("started-victim-*")),
                message="the child to start executing the job")
            pid = server._pool.pids()[0]
            assert pid is not None
            os.kill(pid, signal.SIGKILL)

            died = collector.wait_for("victim", "worker_died", timeout=30.0)
            assert died["ok"] is False
            assert "died" in died["error"]

            # The slot respawns; with the sentinel gone the next job runs
            # through to completion on the fresh child.
            sentinel.unlink()
            submit(server, collector, "after", params=params)
            collector.wait_for("after", "done", timeout=60.0)

            counters = server.stats.snapshot()["counters"]
            assert counters.get("worker_died") == 1
            assert counters.get("worker_respawns", 0) >= 1
            new_pid = server._pool.pids()[0]
            assert new_pid is not None and new_pid != pid
        finally:
            if sentinel.exists():
                sentinel.unlink()
            server.shutdown(timeout=30.0)
