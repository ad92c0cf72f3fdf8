"""Tests for coalescing concurrent simulate jobs into batched polishes.

The fidelity contract is the strongest in the serving layer: the batched
CMP simulator is **bitwise identical** to looping ``simulate``, so a
coalesced simulate job must report exactly the numbers a dedicated
server would.

The flush rule is the network batcher's: a simulate job is a member
from layout load through its polish, and a group runs in one of its
callers' threads once it is full, every member is parked, its oldest
request waited ``max_delay_s`` or the batcher is closing.
"""

import threading
import time

import numpy as np
import pytest

from repro.cmp import CmpSimulator, DEFAULT_PROCESS, ProcessParams
from repro.core.scoring import planarity_metrics
from repro.layout import (
    apply_fill,
    make_design_a,
    make_design_b,
    save_layout,
)
from repro.layout.io import layout_to_dict
from repro.serve import (
    FillServer,
    JobExecutor,
    ModelRegistry,
    Request,
    ServeConfig,
    ServeStats,
    SimulateBatcher,
)
from repro.serve.protocol import encode
from repro.surrogate import save_surrogate

RESULT_FIELDS = ("height", "dishing", "erosion", "pressure", "step_height")


def concurrent_simulate(batcher, jobs):
    """Submit (features, simulator) jobs from one member thread each.
    Every thread joins before any simulates, so the group is complete
    only once all of them have parked."""
    results = [None] * len(jobs)
    errors = []
    joined = threading.Barrier(len(jobs))

    def worker(k):
        try:
            with batcher.member():
                joined.wait(timeout=30)
                results[k] = batcher.simulate(*jobs[k])
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


def assert_same_result(res, ref):
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(res, name), getattr(ref, name), err_msg=name)


@pytest.fixture()
def feature_stacks():
    layouts = [make_design_a(rows=6, cols=6), make_design_b(rows=6, cols=6),
               make_design_a(rows=6, cols=6)]
    rng = np.random.default_rng(11)
    return [apply_fill(lay, rng.uniform(0.0, 0.8) * lay.slack_stack())
            for lay in layouts]


class TestSimulateBatcherFidelity:
    def test_coalesced_bitwise_equals_solo(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=len(feature_stacks),
                                  max_delay_s=30.0)
        try:
            got = concurrent_simulate(
                batcher, [(f, sim) for f in feature_stacks])
        finally:
            batcher.close()
        for features, res in zip(feature_stacks, got):
            ref = sim.simulate(features)
            for name in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(res, name), getattr(ref, name), err_msg=name)

    def test_passthrough_when_disabled(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=1)
        res = batcher.simulate(feature_stacks[0], sim)
        ref = sim.simulate(feature_stacks[0])
        np.testing.assert_array_equal(res.height, ref.height)
        batcher.close()

    def test_simulate_after_close_still_works(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=4, max_delay_s=0.01)
        batcher.close()
        res = batcher.simulate(feature_stacks[0], sim)
        np.testing.assert_array_equal(
            res.height, sim.simulate(feature_stacks[0]).height)


class TestSimulateBatcherGrouping:
    def test_different_physics_never_coalesce(self, feature_stacks):
        """Jobs only share a polish when the process params match."""
        stats = ServeStats()
        fast = CmpSimulator(DEFAULT_PROCESS.scaled(polish_time_s=30.0))
        slow = CmpSimulator(DEFAULT_PROCESS.scaled(polish_time_s=60.0))
        batcher = SimulateBatcher(max_batch=2, max_delay_s=0.05,
                                  stats=stats)
        try:
            concurrent_simulate(batcher, [(feature_stacks[0], fast),
                                          (feature_stacks[0], slow)])
        finally:
            batcher.close()
        assert stats.snapshot()["sim_batch_histogram"] == {"1": 2}

    def test_equal_params_coalesce_across_instances(self, feature_stacks):
        """ProcessParams is frozen: two separately built simulators with
        the same calibration share one group."""
        stats = ServeStats()
        a = CmpSimulator(ProcessParams(polish_time_s=30.0))
        b = CmpSimulator(ProcessParams(polish_time_s=30.0))
        batcher = SimulateBatcher(max_batch=2, max_delay_s=30.0,
                                  stats=stats)
        try:
            concurrent_simulate(batcher, [(feature_stacks[0], a),
                                          (feature_stacks[1], b)])
        finally:
            batcher.close()
        assert stats.snapshot()["sim_batch_histogram"] == {"2": 1}

    def test_close_drains_parked_requests(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=64, max_delay_s=300.0)
        holder = {}

        def park():
            with batcher.member():
                holder["res"] = batcher.simulate(feature_stacks[0], sim)

        thread = threading.Thread(target=park)
        with batcher.member():  # never parks, so the request stays parked
            thread.start()
            while not batcher._pending:  # wait until parked
                time.sleep(0.001)
            batcher.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        np.testing.assert_array_equal(
            holder["res"].height, sim.simulate(feature_stacks[0]).height)

    def test_errors_propagate_to_every_waiter(self, feature_stacks):
        class ExplodingSimulator:
            params = DEFAULT_PROCESS
            window_um = 100.0
            dtype = None

            def simulate_batch(self, features):
                raise RuntimeError("boom")

        boom = ExplodingSimulator()
        batcher = SimulateBatcher(max_batch=2, max_delay_s=30.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                concurrent_simulate(batcher, [(feature_stacks[0], boom),
                                              (feature_stacks[2], boom)])
        finally:
            batcher.close()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimulateBatcher(max_batch=0)
        with pytest.raises(ValueError):
            SimulateBatcher(max_delay_s=-1.0)


class TestSimulateAttendance:
    """A parked simulation waits only for members busy elsewhere."""

    def test_lone_member_flushes_at_once(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0)
        try:
            with batcher.member():
                t0 = time.monotonic()
                got = batcher.simulate(feature_stacks[0], sim)
                elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 1.0
        assert_same_result(got, sim.simulate(feature_stacks[0]))

    def test_full_attendance_flushes_one_group(self, feature_stacks):
        sim = CmpSimulator()
        stats = ServeStats()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0,
                                  stats=stats)
        try:
            t0 = time.monotonic()
            got = concurrent_simulate(
                batcher, [(f, sim) for f in feature_stacks[:2]])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 1.0
        assert stats.snapshot()["sim_batch_histogram"] == {"2": 1}
        for features, res in zip(feature_stacks, got):
            assert_same_result(res, sim.simulate(features))

    def test_busy_member_bounds_wait_by_max_delay(self, feature_stacks):
        sim = CmpSimulator()
        stats = ServeStats()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=0.2,
                                  stats=stats)
        try:
            with batcher.member():  # busy elsewhere: never parks
                with batcher.member():
                    t0 = time.monotonic()
                    got = batcher.simulate(feature_stacks[0], sim)
                    waited = time.monotonic() - t0
        finally:
            batcher.close()
        assert waited >= 0.2
        assert stats.snapshot()["sim_batch_histogram"] == {"1": 1}
        assert_same_result(got, sim.simulate(feature_stacks[0]))

    def test_busy_member_leaving_flushes_at_once(self, feature_stacks):
        sim = CmpSimulator()
        batcher = SimulateBatcher(max_batch=16, max_delay_s=30.0)
        done = {}

        def park():
            with batcher.member():
                done["res"] = batcher.simulate(feature_stacks[0], sim)
                done["at"] = time.monotonic()

        thread = threading.Thread(target=park)
        try:
            with batcher.member():  # busy elsewhere: never parks
                thread.start()
                while not batcher._pending:  # wait until parked
                    time.sleep(0.001)
                time.sleep(0.05)
                assert thread.is_alive()  # still waiting for this member
                left = time.monotonic()
            thread.join(timeout=30)
        finally:
            batcher.close()
        assert not thread.is_alive()
        assert done["at"] - left < 1.0
        assert_same_result(done["res"], sim.simulate(feature_stacks[0]))

    def test_failed_job_leaves_the_batcher(self, feature_stacks, tmp_path):
        """A simulate job that raises after joining still leaves, so a
        later lone member does not wait for it."""
        executor = JobExecutor(max_batch=16, flush_ms=30_000.0)
        batcher = executor._sim_batcher
        try:
            with pytest.raises(FileNotFoundError):
                executor.execute(Request(
                    id="s1", op="simulate",
                    params={"layout_path": str(tmp_path / "missing.json")}))
            assert batcher._members == 0
            with batcher.member():
                t0 = time.monotonic()
                batcher.simulate(feature_stacks[0], CmpSimulator())
                assert time.monotonic() - t0 < 1.0
        finally:
            executor.close()


class TestServerSimulateCoalescing:
    def test_concurrent_jobs_coalesce_and_match_solo(self):
        """Concurrent simulate jobs through the full server coalesce into
        one batched polish and report solo-identical numbers."""
        layout = make_design_a(rows=6, cols=6)
        spec = layout_to_dict(layout)
        server = FillServer(serve_config=ServeConfig(
            workers=4, max_batch=4, flush_ms=100.0))
        server.start()
        results = {}
        lock = threading.Lock()

        def reply_for(jid):
            def reply(message):
                if message.get("status") in ("done", "error", "timeout"):
                    with lock:
                        results[jid] = message
            return reply

        try:
            for k in range(4):
                line = encode({"op": "simulate", "id": f"s{k}",
                               "params": {"layout": spec}})
                server.handle_line(line, reply_for(f"s{k}"))
            deadline = time.monotonic() + 60
            while len(results) < 4 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(results) == 4
            assert all(r["status"] == "done" for r in results.values())
            ref = CmpSimulator().simulate_layout(layout)
            delta_h, sigma, line_dev, outliers = planarity_metrics(ref.height)
            for message in results.values():
                res = message["result"]
                assert res["delta_h"] == delta_h
                assert res["sigma"] == sigma
                assert res["mean_dishing"] == float(ref.dishing.mean())
                assert res["mean_erosion"] == float(ref.erosion.mean())
            histogram = server.stats_snapshot()["sim_batch_histogram"]
            # A job that parks before the others join flushes alone, so
            # the group may split, but every flush lands in the histogram.
            assert sum(int(k) * v for k, v in histogram.items()) == 4
        finally:
            server.shutdown()

    def test_no_batcher_thread(self, trained_surrogate, small_layout,
                               tmp_path):
        """Coalesced groups run in the workers' own threads: serving a
        fill and a simulate job starts no batcher thread."""
        ckpt = save_surrogate(tmp_path / "ckpt", trained_surrogate.unet,
                              trained_surrogate.normalizer,
                              base_channels=6, depth=2)
        registry = ModelRegistry()
        registry.register("m", str(ckpt))
        layout_path = tmp_path / "a.json"
        save_layout(small_layout, str(layout_path))
        server = FillServer(registry=registry, serve_config=ServeConfig(
            workers=2, max_batch=16, worker_mode="thread"))
        server.start()
        results = {}
        lock = threading.Lock()

        def reply_for(jid):
            def reply(message):
                if message.get("status") in ("done", "error", "timeout"):
                    with lock:
                        results[jid] = message
            return reply

        jobs = {
            "fill": {"op": "fill", "params": {
                "layout_path": str(layout_path), "method": "neurfill-pkb",
                "model": "m", "score": False}},
            "sim": {"op": "simulate",
                    "params": {"layout_path": str(layout_path)}},
        }
        try:
            for jid, job in jobs.items():
                server.handle_line(encode({"id": jid, **job}),
                                   reply_for(jid))
            deadline = time.monotonic() + 60
            while len(results) < len(jobs) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert {jid: r["status"] for jid, r in results.items()} == \
                {"fill": "done", "sim": "done"}
            assert server.stats_snapshot()["batch_histogram"]
            batcher_threads = [t.name for t in threading.enumerate()
                               if "batcher" in t.name]
            assert batcher_threads == []
        finally:
            server.shutdown()
