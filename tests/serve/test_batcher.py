"""Tests for dynamic micro-batching of surrogate evaluations.

The fidelity contract under test (DESIGN.md "Serving"):

* a coalesced group of K requests returns **bitwise** what
  ``evaluate_batch`` returns for those K fills stacked;
* a singleton flush is bitwise-identical to sequential ``evaluate``;
* for K > 1 the repo-wide batched contract applies (≤ 1e-10 vs
  sequential, BLAS contraction order at the last ulp).

And the flush rule: a group runs, in one of its callers' threads, once
it is full, every member is parked, its oldest request waited
``max_delay_s`` or the batcher is closing — and never while another
group of the batcher runs.
"""

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import NeurFill
from repro.layout import save_layout
from repro.serve import (
    JobExecutor,
    MicroBatcher,
    ModelRegistry,
    Request,
    ServeStats,
)
from repro.surrogate import PlanarityWeights, save_surrogate

WEIGHTS = PlanarityWeights(0.2, 1e4, 0.2, 1e5, 0.15, 100.0)


def concurrent_evaluate(batcher, fills, weights=WEIGHTS):
    """Submit fills from one member thread each; return results in input
    order.  Every thread joins before any evaluates, so the group is
    complete only once all of them have parked."""
    results = [None] * len(fills)
    errors = []
    joined = threading.Barrier(len(fills))

    def worker(k):
        try:
            with batcher.member():
                joined.wait(timeout=30)
                results[k] = batcher.evaluate(fills[k], weights)
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(fills))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


class StubNetwork:
    """Records the thread and the overlap of every ``evaluate_batch``."""

    def __init__(self, sleep_s: float = 0.0):
        self.sleep_s = sleep_s
        self.threads = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def evaluate_batch(self, fills, weights, grad_mask=None):
        with self._lock:
            self.threads.append(threading.current_thread())
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.sleep_s)
        with self._lock:
            self.in_flight -= 1
        k = len(fills)
        return SimpleNamespace(s_plan=fills.reshape(k, -1).sum(axis=1),
                               breakdowns=[None] * k, heights=fills,
                               gradient=np.ones_like(fills))


def assert_bitwise(ev, reference):
    assert ev.s_plan == reference.s_plan
    assert np.array_equal(ev.heights, reference.heights)
    assert np.array_equal(ev.gradient, reference.gradient)


@pytest.fixture()
def fills(small_layout):
    rng = np.random.default_rng(7)
    slack = small_layout.slack_stack()
    return [rng.uniform(0.1, 0.9) * slack for _ in range(3)]


class TestFidelity:
    def test_coalesced_bitwise_equals_evaluate_batch(self, trained_surrogate,
                                                     fills):
        """Coalescing adds no arithmetic: the scattered per-request results
        are exactly the rows of one ``evaluate_batch`` stacked pass."""
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            got = concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        reference = trained_surrogate.evaluate_batch(np.stack(fills), WEIGHTS)
        for k, ev in enumerate(got):
            assert ev.s_plan == float(reference.s_plan[k])
            assert np.array_equal(ev.heights, reference.heights[k])
            assert np.array_equal(ev.gradient, reference.gradient[k])

    def test_singleton_flush_bitwise_equals_sequential(self, trained_surrogate,
                                                       fills):
        """A flush of one request runs the identical stacked shape,
        hence bitwise-equal to the plain ``evaluate`` path."""
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.005)
        try:
            got = batcher.evaluate(fills[0], WEIGHTS)
        finally:
            batcher.close()
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert got.s_plan == reference.s_plan
        assert np.array_equal(got.heights, reference.heights)
        assert np.array_equal(got.gradient, reference.gradient)

    def test_group_close_to_sequential(self, trained_surrogate, fills):
        """K > 1 inherits the repo-wide batched contract vs sequential."""
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            got = concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        for fill, ev in zip(fills, got):
            reference = trained_surrogate.evaluate(fill, WEIGHTS)
            assert ev.s_plan == pytest.approx(reference.s_plan, abs=1e-10)
            np.testing.assert_allclose(ev.gradient, reference.gradient,
                                       atol=1e-10)

    def test_passthrough_when_disabled(self, trained_surrogate, fills):
        """max_batch=1 short-circuits to the plain sequential path."""
        batcher = MicroBatcher(trained_surrogate, max_batch=1)
        got = batcher.evaluate(fills[0], WEIGHTS)
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert got.s_plan == reference.s_plan
        assert np.array_equal(got.gradient, reference.gradient)
        batcher.close()


class TestBehaviour:
    def test_batch_histogram_recorded(self, trained_surrogate, fills):
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=len(fills),
                               max_delay_s=30.0, stats=stats)
        try:
            concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()
        histogram = stats.snapshot()["batch_histogram"]
        assert histogram.get(str(len(fills))) == 1

    def test_different_weights_never_coalesce(self, trained_surrogate, fills):
        """Requests only share a group when the planarity weights match."""
        stats = ServeStats()
        other = PlanarityWeights(0.3, 1e4, 0.2, 1e5, 0.15, 100.0)
        batcher = MicroBatcher(trained_surrogate, max_batch=2,
                               max_delay_s=0.05, stats=stats)
        try:
            results = [None, None]
            joined = threading.Barrier(2)

            def run(k, weights):
                with batcher.member():
                    joined.wait(timeout=30)
                    results[k] = batcher.evaluate(fills[k], weights)

            threads = [threading.Thread(target=run, args=(0, WEIGHTS)),
                       threading.Thread(target=run, args=(1, other))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            batcher.close()
        histogram = batcher.stats.snapshot()["batch_histogram"]
        assert histogram == {"1": 2}
        assert results[0].s_plan != results[1].s_plan

    def test_close_drains_parked_requests(self, trained_surrogate, fills):
        """close() flushes waiters instead of stranding them."""
        batcher = MicroBatcher(trained_surrogate, max_batch=64,
                               max_delay_s=300.0)
        holder = {}

        def park():
            with batcher.member():
                holder["ev"] = batcher.evaluate(fills[0], WEIGHTS)

        thread = threading.Thread(target=park)
        with batcher.member():  # never parks, so the request stays parked
            thread.start()
            while not batcher._pending:  # wait until parked
                time.sleep(0.001)
            batcher.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert holder["ev"].s_plan == trained_surrogate.evaluate(
            fills[0], WEIGHTS).s_plan

    def test_evaluate_after_close_still_works(self, trained_surrogate, fills):
        batcher = MicroBatcher(trained_surrogate, max_batch=4,
                               max_delay_s=0.01)
        batcher.close()
        ev = batcher.evaluate(fills[0], WEIGHTS)
        assert ev.s_plan == trained_surrogate.evaluate(fills[0],
                                                       WEIGHTS).s_plan

    def test_errors_propagate_to_every_waiter(self, fills):
        class ExplodingNetwork:
            def evaluate_batch(self, fills, weights, grad_mask=None):
                raise RuntimeError("boom")

        batcher = MicroBatcher(ExplodingNetwork(), max_batch=len(fills),
                               max_delay_s=30.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                concurrent_evaluate(batcher, fills)
        finally:
            batcher.close()

    def test_bad_config_rejected(self, trained_surrogate):
        with pytest.raises(ValueError):
            MicroBatcher(trained_surrogate, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(trained_surrogate, max_delay_s=-1.0)


class TestAttendance:
    """A parked request waits only for members busy elsewhere."""

    def test_lone_member_flushes_at_once(self, trained_surrogate, fills):
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0)
        try:
            with batcher.member():
                t0 = time.monotonic()
                got = batcher.evaluate(fills[0], WEIGHTS)
                elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 1.0
        assert_bitwise(got, reference)

    def test_full_attendance_flushes_one_group(self, trained_surrogate,
                                               fills):
        reference = trained_surrogate.evaluate_batch(np.stack(fills[:2]),
                                                     WEIGHTS)
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0, stats=stats)
        try:
            t0 = time.monotonic()
            got = concurrent_evaluate(batcher, fills[:2])
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert elapsed < 1.0
        assert stats.snapshot()["batch_histogram"] == {"2": 1}
        for k, ev in enumerate(got):
            assert ev.s_plan == float(reference.s_plan[k])
            assert np.array_equal(ev.heights, reference.heights[k])
            assert np.array_equal(ev.gradient, reference.gradient[k])

    def test_busy_member_bounds_wait_by_max_delay(self, trained_surrogate,
                                                  fills):
        stats = ServeStats()
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.2, stats=stats)
        try:
            with batcher.member():  # busy elsewhere: never parks
                with batcher.member():
                    t0 = time.monotonic()
                    got = batcher.evaluate(fills[0], WEIGHTS)
                    waited = time.monotonic() - t0
        finally:
            batcher.close()
        assert waited >= 0.2
        assert stats.snapshot()["batch_histogram"] == {"1": 1}
        assert_bitwise(got, trained_surrogate.evaluate(fills[0], WEIGHTS))

    def test_busy_member_leaving_flushes_at_once(self, trained_surrogate,
                                                 fills):
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=30.0)
        done = {}

        def park():
            with batcher.member():
                done["ev"] = batcher.evaluate(fills[0], WEIGHTS)
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
        assert done["at"] - left < 1.0
        assert_bitwise(done["ev"],
                       trained_surrogate.evaluate(fills[0], WEIGHTS))

    def test_group_runs_in_a_callers_thread(self, fills):
        network = StubNetwork()
        batcher = MicroBatcher(network, max_batch=16, max_delay_s=30.0)
        try:
            names = {t.name for t in threading.enumerate()}
            assert "repro-serve-batcher" not in names
            joined = threading.Barrier(2)

            def run(k):
                with batcher.member():
                    joined.wait(timeout=30)
                    batcher.evaluate(fills[k], WEIGHTS)

            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            batcher.close()
        assert len(network.threads) == 1
        assert network.threads[0] in threads

    def test_one_group_in_flight_at_a_time(self, fills):
        """Groups of different weights are all flushable at once; still
        only one runs at a time."""
        network = StubNetwork(sleep_s=0.05)
        batcher = MicroBatcher(network, max_batch=16, max_delay_s=0.01)
        weights = [PlanarityWeights(0.2 + 0.1 * k, 1e4, 0.2, 1e5, 0.15,
                                    100.0) for k in range(3)]
        joined = threading.Barrier(3)
        errors = []

        def run(k):
            try:
                with batcher.member():
                    joined.wait(timeout=30)
                    for _ in range(3):
                        batcher.evaluate(fills[k], weights[k])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(3)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            batcher.close()
        assert not errors
        assert len(network.threads) == 9
        assert network.max_in_flight == 1

    def test_stress_every_row_reaches_its_caller(self):
        """More members than cores, a 1 us switch interval and random
        busy spells: each caller gets its own row back, each request is
        counted once, one group runs at a time, and the batcher ends
        empty."""
        network = StubNetwork()
        stats = ServeStats()
        batcher = MicroBatcher(network, max_batch=4, max_delay_s=0.002,
                               stats=stats)
        n_threads, n_calls = 8, 25
        wrong, errors = [], []
        joined = threading.Barrier(n_threads)

        def run(k):
            rng = np.random.default_rng(k)
            try:
                with batcher.member():
                    joined.wait(timeout=30)
                    for i in range(n_calls):
                        tag = float(k * n_calls + i)
                        ev = batcher.evaluate(np.full((1, 2, 2), tag),
                                              WEIGHTS)
                        if ev.s_plan != 4 * tag:
                            wrong.append((k, i, ev.s_plan))
                        if rng.random() < 0.3:  # busy elsewhere
                            time.sleep(rng.uniform(0.0, 0.003))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors and not wrong
        histogram = stats.snapshot()["batch_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) \
            == n_threads * n_calls
        assert network.max_in_flight == 1
        assert batcher._members == 0 and not batcher._pending

    def test_failed_job_leaves_the_batcher(self, trained_surrogate,
                                           small_layout, fills, tmp_path,
                                           monkeypatch):
        """A served fill that raises inside ``NeurFill.run`` still leaves,
        so a later lone member does not wait for it."""
        ckpt = save_surrogate(tmp_path / "ckpt", trained_surrogate.unet,
                              trained_surrogate.normalizer,
                              base_channels=6, depth=2)
        registry = ModelRegistry()
        registry.register("m", str(ckpt))
        layout_path = tmp_path / "a.json"
        save_layout(small_layout, str(layout_path))

        def exploding(self, method, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(NeurFill, "run", exploding)
        executor = JobExecutor(registry, max_batch=16, flush_ms=30_000.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                executor.execute(Request(
                    id="j1", op="fill",
                    params={"layout_path": str(layout_path),
                            "method": "neurfill-pkb", "model": "m",
                            "score": False}))
            [batcher] = executor._batchers.values()
            assert batcher._members == 0
            with batcher.member():
                t0 = time.monotonic()
                batcher.evaluate(fills[0], WEIGHTS)
                assert time.monotonic() - t0 < 1.0
        finally:
            executor.close()


class TestCoalescedNetwork:
    """The batcher stands in for its network."""

    def test_delegates_everything_else(self, trained_surrogate, small_layout):
        batcher = MicroBatcher(trained_surrogate, max_batch=1)
        assert batcher.layout is trained_surrogate.layout
        heights = batcher.predict_heights()
        np.testing.assert_array_equal(
            heights, trained_surrogate.predict_heights())
        batcher.close()

    def test_evaluate_routes_through_batcher(self, trained_surrogate, fills):
        batcher = MicroBatcher(trained_surrogate, max_batch=16,
                               max_delay_s=0.003)
        ev = batcher.evaluate(fills[0], WEIGHTS)
        reference = trained_surrogate.evaluate(fills[0], WEIGHTS)
        assert ev.s_plan == reference.s_plan
        batcher.close()
