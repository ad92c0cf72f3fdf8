"""The executor's turn: thread-mode jobs that cannot share a batch
compute one at a time, in arrival order.

Unit tests pin :class:`~repro.serve.executor.Turn` itself; server tests
pin which jobs share it in a thread-mode :class:`FillServer` and that
taking turns changes no served bit.
"""

import threading
import time

import numpy as np
import pytest

from repro.cmp import CmpSimulator
from repro.core import (
    BETA_RUNTIME_S,
    FillProblem,
    NeurFill,
    ScoreCoefficients,
    eco_refill,
)
from repro.core.scoring import planarity_metrics
from repro.layout import edit_layout, save_layout
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.obs import trace as obs_trace
from repro.optimize import SqpOptimizer
from repro.serve import FillServer, ModelRegistry, ServeConfig
from repro.serve.executor import JobExecutor, Turn
from repro.serve.protocol import Request
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    HeightNormalizer,
    load_surrogate,
    save_surrogate,
)

from .test_server import Collector, submit


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def start(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# The turn itself
# ----------------------------------------------------------------------
class TestTurn:
    def test_same_key_holders_overlap(self):
        turn, key = Turn(), object()
        inside = [threading.Event(), threading.Event()]
        release = threading.Event()

        def job(i):
            with turn.hold(key):
                inside[i].set()
                release.wait(10)

        threads = [start(job, i) for i in range(2)]
        try:
            assert inside[0].wait(5) and inside[1].wait(5)
        finally:
            release.set()
            for thread in threads:
                thread.join(10)

    @pytest.mark.parametrize("keys", [("a", "b"), (None, None), ("a", None)])
    def test_different_keys_never_overlap(self, keys):
        turn = Turn()
        first_in, second_in = threading.Event(), threading.Event()
        release = threading.Event()

        def first():
            with turn.hold(keys[0]):
                first_in.set()
                release.wait(10)

        def second():
            with turn.hold(keys[1]):
                second_in.set()

        threads = [start(first)]
        assert first_in.wait(5)
        threads.append(start(second))
        wait_until(lambda: len(turn._queue) == 1)
        assert not second_in.wait(0.05)
        release.set()
        assert second_in.wait(5)
        for thread in threads:
            thread.join(10)

    def test_waiter_runs_before_a_later_same_key_job(self):
        turn, key, other = Turn(), object(), object()
        log: list[str] = []
        release = threading.Event()

        def job(name, job_key, gate=None):
            with turn.hold(job_key):
                log.append(f"{name} in")
                if gate is not None:
                    gate.wait(10)
                log.append(f"{name} out")

        threads = [start(job, "A", key, release)]
        wait_until(lambda: log == ["A in"])
        threads.append(start(job, "B", other))
        wait_until(lambda: len(turn._queue) == 1)
        # C shares A's key, but B arrived first: C queues behind B.
        threads.append(start(job, "C", key))
        wait_until(lambda: len(turn._queue) == 2)
        assert log == ["A in"]
        release.set()
        for thread in threads:
            thread.join(10)
        assert log == ["A in", "A out", "B in", "B out", "C in", "C out"]

    @pytest.mark.parametrize("key", [None, "k"])
    def test_lone_holder_never_blocks(self, key):
        turn = Turn()
        for _ in range(3):
            with turn.hold(key) as waited:
                assert waited < 0.05
        with turn.hold("k"):
            with turn.hold("k") as waited:  # same key, nobody waiting
                assert waited < 0.05

    def test_exception_releases_the_turn(self):
        turn = Turn()
        with pytest.raises(RuntimeError, match="boom"):
            with turn.hold("a"):
                raise RuntimeError("boom")
        entered = threading.Event()

        def other():
            with turn.hold("b"):
                entered.set()

        thread = start(other)
        assert entered.wait(5)
        thread.join(10)

    def test_wait_is_a_serve_turn_span(self):
        turn = Turn()
        with obs_trace.capture() as tracer:
            with turn.hold("k"):
                pass
            with turn.hold():
                pass
        spans = [s for s in tracer.records("span")
                 if s["name"] == "serve.turn"]
        assert [s["attrs"]["shared"] for s in spans] == [True, False]
        assert all(s["cat"] == "serve" and s["attrs"]["waited_ms"] >= 0
                   for s in spans)


# ----------------------------------------------------------------------
# Who shares the turn in a thread-mode server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("turns")
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
    ckpt = str(save_surrogate(root / "ckpt", unet,
                              HeightNormalizer(2500.0, 300.0),
                              base_channels=4, depth=2))
    layouts = [DESIGN_BUILDERS["A"](rows=8, cols=8, seed=seed)
               for seed in (3, 4)]
    paths = []
    for i, layout in enumerate(layouts):
        path = root / f"layout-{i}.json"
        save_layout(layout, str(path))
        paths.append(str(path))
    oneshot = []
    for layout in layouts:
        problem = FillProblem(layout, ScoreCoefficients.calibrated(
            layout, CmpSimulator(), beta_runtime=BETA_RUNTIME_S))
        oneshot.append(NeurFill(
            problem, load_surrogate(ckpt, layout),
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
            simulator=CmpSimulator(),
        ).run("neurfill-pkb").fill)
    return {"root": root, "ckpt": ckpt, "layouts": layouts,
            "paths": paths, "oneshot": oneshot}


@pytest.fixture()
def run_intervals(monkeypatch):
    """Record each ``NeurFill.run``'s interval; it sleeps 50 ms inside,
    so two runs that may overlap do."""
    intervals: list[tuple[float, float]] = []
    original = NeurFill.run

    def run(self, *args, **kwargs):
        t0 = time.monotonic()
        time.sleep(0.05)
        try:
            return original(self, *args, **kwargs)
        finally:
            intervals.append((t0, time.monotonic()))

    monkeypatch.setattr(NeurFill, "run", run)
    return intervals


def overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def thread_server(ckpt: str, max_batch: int = 16) -> FillServer:
    registry = ModelRegistry()
    registry.register("m", ckpt)
    server = FillServer(registry=registry, serve_config=ServeConfig(
        workers=2, queue_capacity=8, max_batch=max_batch, flush_ms=4.0,
        worker_mode="thread"))
    server.start()
    return server


def fill_params(path: str) -> dict:
    return {"layout_path": path, "method": "neurfill-pkb", "model": "m",
            "score": False, "return_fill": True}


def concurrent_fills(server, paths: list[str]) -> list[np.ndarray]:
    collector = Collector()
    ids = [f"f{i}" for i in range(len(paths))]
    for rid, path in zip(ids, paths):
        submit(server, collector, rid, params=fill_params(path))
    return [np.array(collector.wait_for(rid, "done")["result"]["fill"])
            for rid in ids]


class TestServedTurns:
    def test_fills_on_different_layouts_never_overlap(
            self, workspace, run_intervals):
        server = thread_server(workspace["ckpt"])
        try:
            fills = concurrent_fills(server, workspace["paths"])
        finally:
            server.shutdown(timeout=30.0)
        assert len(run_intervals) == 2
        assert not overlap(*run_intervals), run_intervals
        for fill, oneshot in zip(fills, workspace["oneshot"]):
            assert np.array_equal(fill, oneshot)

    def test_fills_on_one_layout_overlap_and_coalesce(
            self, workspace, run_intervals):
        server = thread_server(workspace["ckpt"])
        try:
            fills = concurrent_fills(server, [workspace["paths"][0]] * 2)
            histogram = server.stats_snapshot()["batch_histogram"]
        finally:
            server.shutdown(timeout=30.0)
        assert len(run_intervals) == 2
        assert overlap(*run_intervals), run_intervals
        assert histogram.get("2", 0) >= 1, histogram
        for fill in fills:
            np.testing.assert_allclose(fill, workspace["oneshot"][0],
                                       rtol=0, atol=1e-8)

    def test_max_batch_1_fills_on_one_layout_never_overlap(
            self, workspace, run_intervals):
        server = thread_server(workspace["ckpt"], max_batch=1)
        try:
            fills = concurrent_fills(server, [workspace["paths"][0]] * 2)
        finally:
            server.shutdown(timeout=30.0)
        assert len(run_intervals) == 2
        assert not overlap(*run_intervals), run_intervals
        for fill in fills:
            assert np.array_equal(fill, workspace["oneshot"][0])

    def test_eco_and_simulate_unchanged_and_turn_wait_recorded(
            self, workspace):
        parent_layout = workspace["layouts"][0]
        edited = edit_layout(parent_layout, 1, slice(2, 4), slice(2, 4))
        edited_path = str(workspace["root"] / "edited.json")
        save_layout(edited, edited_path)
        server = thread_server(workspace["ckpt"])
        try:
            collector = Collector()
            submit(server, collector, "f",
                   params=fill_params(workspace["paths"][0]))
            parent = collector.wait_for("f", "done")["result"]
            submit(server, collector, "e", op="eco", params={
                "layout_path": edited_path, "model": "m",
                "parent_fingerprint": parent["layout_fingerprint"],
                "score": False, "return_fill": True})
            submit(server, collector, "s", op="simulate",
                   params={"layout_path": edited_path})
            eco = collector.wait_for("e", "done")["result"]
            simulated = collector.wait_for("s", "done")["result"]
            latency = server.stats_snapshot()["latency"]
        finally:
            server.shutdown(timeout=30.0)

        problem = FillProblem(edited, ScoreCoefficients.calibrated(
            edited, CmpSimulator(), beta_runtime=BETA_RUNTIME_S))
        direct = eco_refill(
            problem, load_surrogate(workspace["ckpt"], edited),
            parent_layout, workspace["oneshot"][0],
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9))
        assert np.array_equal(np.array(eco["fill"]), direct.fill)
        assert eco["quality"] == direct.quality

        result = CmpSimulator().simulate_layout(edited)
        delta_h, sigma, line, outliers = planarity_metrics(result.height)
        assert (simulated["delta_h"], simulated["sigma"],
                simulated["line_deviation"], simulated["outliers"]) == \
            (delta_h, sigma, line, outliers)
        assert simulated["mean_dishing"] == float(result.dishing.mean())
        assert simulated["mean_erosion"] == float(result.erosion.mean())

        assert latency["turn_wait"]["count_total"] == 3  # one per job
        assert latency["execute"]["count_total"] == 3


class TestExecutorKeys:
    """Which key a job's turn span reports, without a server."""

    @pytest.mark.parametrize("max_batch, shared", [(16, True), (1, False)])
    def test_simulate_shares_only_when_coalescing(
            self, workspace, max_batch, shared):
        executor = JobExecutor(max_batch=max_batch, flush_ms=4.0)
        try:
            with obs_trace.capture() as tracer:
                executor.execute(Request(
                    id="s", op="simulate",
                    params={"layout_path": workspace["paths"][0]}))
        finally:
            executor.close()
        spans = [s for s in tracer.records("span")
                 if s["name"] == "serve.turn"]
        assert [s["attrs"]["shared"] for s in spans] == [shared]

    def test_rule_based_fill_holds_alone(self, workspace):
        executor = JobExecutor(max_batch=16, flush_ms=4.0)
        try:
            with obs_trace.capture() as tracer:
                executor.execute(Request(
                    id="l", op="fill",
                    params={"layout_path": workspace["paths"][0],
                            "method": "lin", "score": False}))
        finally:
            executor.close()
        spans = [s for s in tracer.records("span")
                 if s["name"] == "serve.turn"]
        assert [s["attrs"]["shared"] for s in spans] == [False]
