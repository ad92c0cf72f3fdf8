"""Tests for the in-process :class:`FillServer` (no transport).

Requests are driven through ``handle_line`` with a collecting reply
callback, which is exactly how the pipe/TCP transports call it.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.core import FillProblem, NeurFill, ScoreCoefficients
from repro.layout import load_layout, save_layout
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.optimize import SqpOptimizer
from repro.serve import (
    FillServer,
    JobJournal,
    ModelRegistry,
    ServeConfig,
    encode,
    parse_request,
)
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    HeightNormalizer,
    load_surrogate,
    save_surrogate,
)


@pytest.fixture(scope="module")
def layout_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "a.json"
    save_layout(DESIGN_BUILDERS["A"](rows=8, cols=8, seed=3), str(path))
    return str(path)


class Collector:
    """Thread-safe reply sink with wait-for-status helpers."""

    def __init__(self):
        self.messages = []
        self._cond = threading.Condition()

    def __call__(self, message: dict) -> None:
        with self._cond:
            self.messages.append(message)
            self._cond.notify_all()

    def wait_for(self, rid: str, status: str, timeout: float = 60.0) -> dict:
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

    def statuses(self, rid: str) -> list:
        with self._cond:
            return [m.get("status") for m in self.messages
                    if m.get("id") == rid]


def submit(server, collector, rid, op="fill", params=None, **extra):
    message = {"id": rid, "op": op, "params": params or {}}
    message.update(extra)
    server.handle_line(encode(message), collector)


@pytest.fixture()
def server():
    instance = FillServer(
        registry=ModelRegistry(),
        serve_config=ServeConfig(workers=2, queue_capacity=4, max_batch=1,
                                 drain_timeout_s=30.0),
    )
    instance.start()
    yield instance
    instance.shutdown(timeout=10.0)


class TestHappyPath:
    def test_fill_lin_ack_then_done(self, server, layout_file):
        collector = Collector()
        submit(server, collector, "j1",
               params={"layout_path": layout_file, "method": "lin",
                       "return_fill": True})
        done = collector.wait_for("j1", "done")
        assert collector.statuses("j1")[0] == "accepted"
        result = done["result"]
        assert result["method"] == "lin"
        assert result["total_fill"] > 0
        assert np.array(result["fill"]).shape == (3, 8, 8)
        assert "score" in result

    def test_simulate(self, server, layout_file):
        collector = Collector()
        submit(server, collector, "s1", op="simulate",
               params={"layout_path": layout_file})
        done = collector.wait_for("s1", "done")
        assert done["result"]["delta_h"] > 0
        assert done["result"]["rows"] == 8

    def test_inline_layout(self, server, layout_file):
        from repro.layout import load_layout
        from repro.layout.io import layout_to_dict
        collector = Collector()
        submit(server, collector, "j1", op="simulate",
               params={"layout": layout_to_dict(load_layout(layout_file))})
        assert collector.wait_for("j1", "done")["result"]["delta_h"] > 0

    def test_ping_stats_models(self, server):
        collector = Collector()
        submit(server, collector, "p1", op="ping")
        assert collector.wait_for("p1", "done")["result"]["pong"] is True
        submit(server, collector, "st1", op="stats")
        snapshot = collector.wait_for("st1", "done")["result"]
        assert snapshot["queue_capacity"] == 4
        assert snapshot["workers"] == 2
        assert snapshot["accepting"] is True
        assert "latency" in snapshot and "batch_histogram" in snapshot
        submit(server, collector, "m1", op="models")
        assert collector.wait_for("m1", "done")["result"]["models"] == {}


class TestRejection:
    def test_protocol_error_replies(self, server):
        collector = Collector()
        server.handle_line("this is not json", collector)
        assert collector.messages[0]["ok"] is False
        assert "not valid JSON" in collector.messages[0]["error"]

    def test_bad_method_rejected_before_queueing(self, server, layout_file):
        collector = Collector()
        submit(server, collector, "j1",
               params={"layout_path": layout_file, "method": "magic"})
        rejected = collector.wait_for("j1", "rejected", timeout=5.0)
        assert "magic" in rejected["error"]

    def test_missing_layout_params_rejected(self, server):
        collector = Collector()
        submit(server, collector, "j1", params={"method": "lin"})
        collector.wait_for("j1", "rejected", timeout=5.0)

    def test_duplicate_id_rejected(self, server, layout_file):
        collector = Collector()
        params = {"layout_path": layout_file, "method": "lin",
                  "score": False}
        submit(server, collector, "dup", params=params)
        submit(server, collector, "dup", params=params)
        rejected = collector.wait_for("dup", "rejected", timeout=10.0)
        assert "duplicate" in rejected["error"]
        collector.wait_for("dup", "done")


class BlockingExecute:
    """Patches ``_execute`` so workers block until released."""

    def __init__(self, server):
        self.release = threading.Event()
        self.entered = threading.Event()
        self._orig = server._execute

        def blocked(request):
            self.entered.set()
            assert self.release.wait(timeout=60.0)
            return self._orig(request)

        server._execute = blocked


class TestBackpressure:
    def test_queue_full_rejects(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=1, max_batch=1))
        blocker = BlockingExecute(server)
        server.start()
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "running", params=params)
            assert blocker.entered.wait(timeout=10.0)  # worker is busy
            submit(server, collector, "queued", params=params)
            collector.wait_for("queued", "accepted", timeout=5.0)
            submit(server, collector, "overflow", params=params)
            rejected = collector.wait_for("overflow", "rejected", timeout=5.0)
            assert "queue full" in rejected["error"]
            blocker.release.set()
            collector.wait_for("running", "done")
            collector.wait_for("queued", "done")
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)


class TestDuplicateIds:
    """An id is taken from admission until its terminal outcome."""

    params = {"method": "lin", "score": False}

    def make_server(self, tmp_path):
        server = FillServer(
            serve_config=ServeConfig(workers=1, queue_capacity=4,
                                     max_batch=1),
            journal_path=str(tmp_path / "journal.jsonl"))
        return server, BlockingExecute(server)

    def test_duplicate_of_queued_job_keeps_its_journal_accept(
            self, tmp_path, layout_file):
        server, blocker = self.make_server(tmp_path)
        server.start()
        try:
            collector = Collector()
            params = dict(self.params, layout_path=layout_file)
            submit(server, collector, "running", params=params)
            assert blocker.entered.wait(timeout=10.0)
            submit(server, collector, "q", params=params)
            collector.wait_for("q", "accepted", timeout=5.0)
            submit(server, collector, "q", params=params)
            rejected = collector.wait_for("q", "rejected", timeout=5.0)
            assert "duplicate" in rejected["error"]
            # A crash now must still resume the job the client saw
            # accepted: the duplicate's rejection is not journalled.
            pending = JobJournal.read_pending(tmp_path / "journal.jsonl")
            assert sorted(spec["id"] for spec in pending) == ["q", "running"]
            blocker.release.set()
            collector.wait_for("q", "done")
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)

    def test_duplicate_of_running_job_rejected(self, tmp_path, layout_file):
        server, blocker = self.make_server(tmp_path)
        server.start()
        try:
            collector = Collector()
            params = dict(self.params, layout_path=layout_file)
            submit(server, collector, "running", params=params)
            assert blocker.entered.wait(timeout=10.0)
            submit(server, collector, "running", params=params)
            rejected = collector.wait_for("running", "rejected", timeout=5.0)
            assert "duplicate" in rejected["error"]
            blocker.release.set()
            collector.wait_for("running", "done")
            assert collector.statuses("running") == ["accepted", "rejected",
                                                     "done"]
            # The id is free again once the job's outcome is journalled.
            submit(server, collector, "running", params=params)
            deadline = time.monotonic() + 30.0
            while collector.statuses("running").count("done") < 2:
                assert time.monotonic() < deadline, collector.messages
                time.sleep(0.05)
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)
        assert JobJournal.read_pending(tmp_path / "journal.jsonl") == []

    def test_concurrent_duplicates_admit_exactly_one(self, tmp_path,
                                                     layout_file):
        server, blocker = self.make_server(tmp_path)
        server.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            collector = Collector()
            params = dict(self.params, layout_path=layout_file)
            barrier = threading.Barrier(8)

            def race():
                barrier.wait(timeout=10.0)
                submit(server, collector, "dup", params=params)

            threads = [threading.Thread(target=race) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            blocker.release.set()
            server.shutdown(timeout=10.0)
        statuses = collector.statuses("dup")
        assert statuses.count("accepted") == 1
        assert statuses.count("rejected") == 7
        assert statuses.count("done") == 1
        events = [json.loads(line) for line in
                  (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert sum(e["event"] == "accept" for e in events) == 1


class TestTimeoutAndCancel:
    def test_queued_job_times_out(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1))
        blocker = BlockingExecute(server)
        server.start()
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "running", params=params)
            assert blocker.entered.wait(timeout=10.0)
            submit(server, collector, "hurried", params=params,
                   timeout_s=0.05)
            collector.wait_for("hurried", "accepted", timeout=5.0)
            time.sleep(0.1)  # deadline passes while queued
            blocker.release.set()
            timed_out = collector.wait_for("hurried", "timeout")
            assert timed_out["ok"] is False
            collector.wait_for("running", "done")
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)

    def test_cancel_pending_job(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1))
        blocker = BlockingExecute(server)
        server.start()
        try:
            collector = Collector()
            params = {"layout_path": layout_file, "method": "lin",
                      "score": False}
            submit(server, collector, "running", params=params)
            assert blocker.entered.wait(timeout=10.0)
            submit(server, collector, "victim", params=params)
            collector.wait_for("victim", "accepted", timeout=5.0)
            submit(server, collector, "c1", op="cancel",
                   params={"job_id": "victim"})
            verdict = collector.wait_for("c1", "done", timeout=5.0)
            assert verdict["result"]["cancelled"] is True
            cancelled = collector.wait_for("victim", "cancelled", timeout=5.0)
            assert cancelled["ok"] is False
            blocker.release.set()
            collector.wait_for("running", "done")
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)

    def test_cancel_unknown_job(self, server):
        collector = Collector()
        submit(server, collector, "c1", op="cancel",
               params={"job_id": "ghost"})
        verdict = collector.wait_for("c1", "done", timeout=5.0)
        assert verdict["result"]["cancelled"] is False


class TestJournalResume:
    def test_accepted_jobs_survive_crash(self, tmp_path, layout_file):
        journal_path = str(tmp_path / "journal.jsonl")
        params = {"layout_path": layout_file, "method": "lin",
                  "score": False}

        # First server: accept a job but "crash" before executing it
        # (workers never started, process state simply abandoned).
        first = FillServer(
            serve_config=ServeConfig(workers=1, queue_capacity=4,
                                     max_batch=1),
            journal_path=journal_path,
        )
        collector = Collector()
        submit(first, collector, "orphan", params=params)
        collector.wait_for("orphan", "accepted", timeout=5.0)
        pending = JobJournal.read_pending(journal_path)
        assert [spec["id"] for spec in pending] == ["orphan"]

        # Second server on the same journal path resumes the job.
        second = FillServer(
            serve_config=ServeConfig(workers=1, queue_capacity=4,
                                     max_batch=1),
            journal_path=journal_path,
        )
        try:
            second.start()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                counters = second.stats.snapshot()["counters"]
                if counters.get("completed"):
                    break
                time.sleep(0.05)
            counters = second.stats.snapshot()["counters"]
            assert counters.get("resumed") == 1
            assert counters.get("completed") == 1
        finally:
            second.shutdown(timeout=10.0)
        # the resumed job finished, so a third recovery finds nothing
        assert JobJournal.read_pending(journal_path) == []

    def test_resume_never_rejects_a_journalled_job(self, tmp_path,
                                                   layout_file):
        """Replayed jobs were already acked: they enter the queue past
        its capacity, while new client jobs still see it full."""
        journal_path = str(tmp_path / "journal.jsonl")
        params = {"layout_path": layout_file, "method": "lin",
                  "score": False}
        journal = JobJournal(journal_path)
        for k in range(6):
            journal.record_accept(parse_request(encode(
                {"id": f"r{k}", "op": "fill", "params": params})))
        journal.close()

        server = FillServer(
            serve_config=ServeConfig(workers=1, queue_capacity=2,
                                     max_batch=1),
            journal_path=journal_path)
        blocker = BlockingExecute(server)
        server.start()
        try:
            assert blocker.entered.wait(timeout=10.0)
            collector = Collector()
            submit(server, collector, "fresh", params=params)
            rejected = collector.wait_for("fresh", "rejected", timeout=5.0)
            assert "queue full" in rejected["error"]
            blocker.release.set()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if server.stats.snapshot()["counters"].get("completed") == 6:
                    break
                time.sleep(0.05)
            counters = server.stats.snapshot()["counters"]
            assert counters.get("resumed") == 6
            assert counters.get("accepted") == 6
            assert counters.get("completed") == 6
            assert counters.get("rejected") == 1  # only the fresh job
        finally:
            blocker.release.set()
            server.shutdown(timeout=10.0)
        dones = JobJournal.read_dones(journal_path)
        assert sorted(e["id"] for e in dones if e["status"] == "done") == [
            f"r{k}" for k in range(6)]


class TestShutdown:
    def test_drain_finishes_queued_work(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=2, queue_capacity=8, max_batch=1))
        server.start()
        collector = Collector()
        for k in range(4):
            submit(server, collector, f"j{k}",
                   params={"layout_path": layout_file, "method": "lin",
                           "score": False})
        server.shutdown(drain=True, timeout=60.0)
        for k in range(4):
            collector.wait_for(f"j{k}", "done", timeout=1.0)
        assert server.shutdown_complete

    def test_no_drain_cancels_queued_work(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=8, max_batch=1))
        blocker = BlockingExecute(server)
        server.start()
        collector = Collector()
        params = {"layout_path": layout_file, "method": "lin",
                  "score": False}
        submit(server, collector, "running", params=params)
        assert blocker.entered.wait(timeout=10.0)
        submit(server, collector, "doomed", params=params)
        collector.wait_for("doomed", "accepted", timeout=5.0)

        shutdown_thread = threading.Thread(
            target=lambda: server.shutdown(drain=False, timeout=30.0))
        shutdown_thread.start()
        cancelled = collector.wait_for("doomed", "cancelled", timeout=10.0)
        assert cancelled["ok"] is False
        blocker.release.set()
        shutdown_thread.join(timeout=30.0)
        assert not shutdown_thread.is_alive()
        collector.wait_for("running", "done", timeout=5.0)

    def test_rejects_after_shutdown(self, layout_file):
        server = FillServer(serve_config=ServeConfig(
            workers=1, queue_capacity=4, max_batch=1))
        server.start()
        server.shutdown(timeout=10.0)
        collector = Collector()
        submit(server, collector, "late",
               params={"layout_path": layout_file, "method": "lin"})
        rejected = collector.wait_for("late", "rejected", timeout=5.0)
        assert "shutting down" in rejected["error"]


class TestCoalescedFills:
    """Thread mode with default batching: concurrent fills of one layout
    coalesce, and every fill matches the one-shot ``NeurFill.run``."""

    def test_concurrent_fills_coalesce(self, tmp_path, layout_file):
        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2,
                    rng=0)
        ckpt = str(save_surrogate(tmp_path / "ckpt", unet,
                                  HeightNormalizer(2500.0, 300.0),
                                  base_channels=4, depth=2))
        layout = load_layout(layout_file)
        problem = FillProblem(layout, ScoreCoefficients.calibrated(
            layout, CmpSimulator(), beta_runtime=60.0))
        oneshot = NeurFill(
            problem, load_surrogate(ckpt, layout),
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
            simulator=CmpSimulator(),
        ).run("neurfill-pkb").fill

        registry = ModelRegistry()
        registry.register("m", ckpt)
        server = FillServer(registry=registry, serve_config=ServeConfig(
            workers=2, queue_capacity=8, worker_mode="thread"))
        server.start()
        params = {"layout_path": layout_file, "method": "neurfill-pkb",
                  "model": "m", "score": False, "return_fill": True}
        try:
            collector = Collector()
            for rid in ("a", "b"):
                submit(server, collector, rid, params=params)
            results = [collector.wait_for(rid, "done")["result"]
                       for rid in ("a", "b")]
            for result in results:
                np.testing.assert_allclose(np.array(result["fill"]),
                                           oneshot, rtol=0, atol=1e-8)
            histogram = server.stats_snapshot()["batch_histogram"]
            assert histogram.get("2", 0) >= 1, histogram
            network = registry.network_for(
                "m", layout, results[0]["layout_fingerprint"])
            assert network.capture_stats()["bypass"] == 0

            submit(server, collector, "lone", params=params)
            lone = collector.wait_for("lone", "done")["result"]
            assert np.array_equal(np.array(lone["fill"]), oneshot)
        finally:
            server.shutdown(timeout=30.0)
