"""Process worker mode: parity and crash containment.

These tests fork real worker children.  The crash tests monkeypatch
``JobExecutor.execute`` at class level *before* ``server.start()`` — the
children are forked at start, so they inherit the patch — and gate the
patched body on sentinel files, which gives the parent a deterministic
window to SIGKILL a child mid-job.  Other process-mode tests import
:func:`_gate_execute` for the same hold-until-released pattern.
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


def _gate_execute(monkeypatch, tmp_path):
    """Patch ``JobExecutor.execute`` to drop a ``started-<id>-<pid>``
    marker, then block while the returned sentinel file exists."""
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
    return sentinel, markers


def _kill_first_run(server, collector, markers, rid):
    """SIGKILL the child running ``rid`` and wait for the respawned child
    to re-run it; returns ``(first_pid, second_pid)``."""
    _wait_until(
        lambda: list(markers.glob(f"started-{rid}-*")),
        message="the child to start executing the job")
    first_pid = server._pool.pids()[0]
    assert first_pid is not None
    os.kill(first_pid, signal.SIGKILL)

    # First crash: the respawned child re-runs the job (not lost, not
    # failed) — a second marker appears from a new pid.
    _wait_until(
        lambda: len(list(markers.glob(f"started-{rid}-*"))) >= 2,
        message="the respawned child to re-execute the job")
    assert "worker_died" not in collector.statuses(rid)
    second_pid = server._pool.pids()[0]
    assert second_pid not in (None, first_pid)
    assert (markers / f"started-{rid}-{second_pid}").exists()
    return first_pid, second_pid


class TestWorkerCrash:
    def test_sigkill_mid_job_reruns_once_on_the_respawned_child(
            self, tmp_path, layout_file, monkeypatch):
        sentinel, markers = _gate_execute(monkeypatch, tmp_path)
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1,
            worker_mode="process"))
        server.start()  # forks AFTER the patch: children inherit it
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "victim", params=params)
            _kill_first_run(server, collector, markers, "victim")

            # With the gate open the re-run completes: one done reply.
            sentinel.unlink()
            done = collector.wait_for("victim", "done", timeout=60.0)
            assert done["ok"] is True
            assert collector.statuses("victim").count("done") == 1

            counters = server.stats.snapshot()["counters"]
            assert counters.get("redispatched") == 1
            assert not counters.get("worker_died")
            assert counters.get("worker_respawns", 0) >= 1
        finally:
            if sentinel.exists():
                sentinel.unlink()
            server.shutdown(timeout=30.0)

    def test_sigkill_mid_job_yields_worker_died_and_respawns(
            self, tmp_path, layout_file, monkeypatch):
        sentinel, markers = _gate_execute(monkeypatch, tmp_path)
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1,
            worker_mode="process"))
        server.start()  # forks AFTER the patch: children inherit it
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "victim", params=params)
            first_pid, second_pid = _kill_first_run(
                server, collector, markers, "victim")

            # Second crash of the same job: fail it distinguishably
            # rather than crash-looping the pool.
            os.kill(second_pid, signal.SIGKILL)
            died = collector.wait_for("victim", "worker_died", timeout=30.0)
            assert died["ok"] is False
            assert "died" in died["error"]

            # The slot respawns again; with the gate open the next job
            # runs through to completion on the fresh child.
            sentinel.unlink()
            submit(server, collector, "after", params=params)
            collector.wait_for("after", "done", timeout=60.0)

            counters = server.stats.snapshot()["counters"]
            assert counters.get("redispatched") == 1
            assert counters.get("worker_died") == 1
            assert counters.get("worker_respawns", 0) >= 2
            assert server._pool.pids()[0] not in (None, first_pid,
                                                  second_pid)
        finally:
            if sentinel.exists():
                sentinel.unlink()
            server.shutdown(timeout=30.0)

    def test_other_workers_unaffected_by_a_crash(self, tmp_path):
        server = FillServer(serve_config=ServeConfig(
            workers=2, queue_capacity=8, max_batch=1,
            worker_mode="process"))
        server.start()
        try:
            collector = Collector()
            # Kill an idle child outright; jobs must still complete (the
            # dead slot respawns on demand or from the monitor).
            os.kill(server._pool.pids()[0], signal.SIGKILL)
            for k in range(4):
                path = tmp_path / f"c{k}.json"
                save_layout(DESIGN_BUILDERS["A"](rows=8, cols=8, seed=10 + k),
                            str(path))
                submit(server, collector, f"j{k}",
                       params={"layout_path": str(path), "method": "lin",
                               "score": False})
            for k in range(4):
                collector.wait_for(f"j{k}", "done", timeout=120.0)
            counters = server.stats.snapshot()["counters"]
            assert not counters.get("worker_died")
        finally:
            server.shutdown(timeout=30.0)
