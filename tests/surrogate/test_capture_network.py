"""Captured-graph execution behind the surrogate entry points.

``CmpNeuralNetwork`` with ``capture=True`` (the default) must be
indistinguishable — *bitwise*, not approximately — from ``capture=False``
on every entry point, while allocating no new large arrays per call once
a plan is warm.
"""

import gc
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.layout import make_design_a
from repro.nn import UNet
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityWeights,
)
from repro.surrogate.network import MAX_CAPTURE_PLANS, EvalRegion

GRID = 12
WEIGHTS = PlanarityWeights(1.0, 20000.0, 1.0, 20000.0, 1.0, 20000.0)


def build_net(layout, capture):
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=1, rng=0)
    return CmpNeuralNetwork(
        layout, unet, HeightNormalizer(2500.0, 300.0), capture=capture)


@pytest.fixture(scope="module")
def layout():
    return make_design_a(rows=GRID, cols=GRID, seed=2)


@pytest.fixture()
def nets(layout):
    return build_net(layout, True), build_net(layout, False)


def fills_for(layout, count, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    slack = layout.slack_stack()
    shape = slack.shape if batch is None else (batch, *slack.shape)
    return [rng.random(shape) * slack for _ in range(count)]


def assert_same_eval(a, b):
    assert a.s_plan == b.s_plan
    assert np.array_equal(a.heights, b.heights)
    if a.gradient is None:
        assert b.gradient is None
    else:
        assert np.array_equal(a.gradient, b.gradient)
    assert a.breakdown == b.breakdown


class TestBitwiseParity:
    def test_evaluate(self, nets):
        captured, eager = nets
        for fill in fills_for(captured.layout, 4, seed=1):
            assert_same_eval(captured.evaluate(fill, WEIGHTS),
                             eager.evaluate(fill, WEIGHTS))
        stats = captured.capture_stats()
        assert stats["trace"] == 1
        assert stats["replay"] == 3

    def test_evaluate_no_grad(self, nets):
        captured, eager = nets
        for fill in fills_for(captured.layout, 3, seed=2):
            a = captured.evaluate(fill, WEIGHTS, want_grad=False)
            b = eager.evaluate(fill, WEIGHTS, want_grad=False)
            assert_same_eval(a, b)
            assert a.gradient is None

    def test_evaluate_batch(self, nets):
        captured, eager = nets
        for fills in fills_for(captured.layout, 3, seed=3, batch=3):
            a = captured.evaluate_batch(fills, WEIGHTS)
            b = eager.evaluate_batch(fills, WEIGHTS)
            assert np.array_equal(a.s_plan, b.s_plan)
            assert np.array_equal(a.heights, b.heights)
            assert np.array_equal(a.gradient, b.gradient)
            assert a.breakdowns == b.breakdowns

    def test_evaluate_batch_grad_mask(self, nets):
        captured, eager = nets
        mask = np.array([True, False, True])
        for fills in fills_for(captured.layout, 2, seed=4, batch=3):
            a = captured.evaluate_batch(fills, WEIGHTS, grad_mask=mask)
            b = eager.evaluate_batch(fills, WEIGHTS, grad_mask=mask)
            assert np.array_equal(a.gradient, b.gradient)
            assert not a.gradient[1].any()

    def test_evaluate_region(self, nets):
        captured, eager = nets
        base_fill, trial0 = fills_for(captured.layout, 2, seed=5)
        base = eager.predict_heights(base_fill)
        active = np.zeros((GRID, GRID), bool)
        active[4:7, 5:8] = True
        region = captured.plan_region(active)
        for k in range(3):
            trial = base_fill.copy()
            trial[:, 4:7, 5:8] = trial0[:, 4:7, 5:8] * (0.5 + 0.1 * k)
            a = captured.evaluate_region(trial, region, base, WEIGHTS)
            b = eager.evaluate_region(trial, region, base, WEIGHTS)
            assert_same_eval(a, b)

    def test_replays_leave_caller_arrays_untouched(self, nets):
        captured, _ = nets
        fills = fills_for(captured.layout, 3, seed=6)
        kept = [f.copy() for f in fills]
        for fill in fills:
            captured.evaluate(fill, WEIGHTS)
        assert captured.capture_stats()["replay"] == 2
        for fill, copy in zip(fills, kept):
            assert np.array_equal(fill, copy)


def eager_twin(net):
    """A ``capture=False`` network over the same (live) UNet."""
    return CmpNeuralNetwork(net.layout, net.unet, net.normalizer,
                            capture=False)


def region_setup(net):
    base_fill, trial0 = fills_for(net.layout, 2, seed=5)
    base = eager_twin(net).predict_heights(base_fill)
    active = np.zeros((GRID, GRID), bool)
    active[4:7, 5:8] = True
    trial = base_fill.copy()
    trial[:, 4:7, 5:8] = trial0[:, 4:7, 5:8] * 0.5
    return trial, net.plan_region(active), base


class TestBackwardOnlyReplay:
    """``evaluate(f, want_grad=False)`` then ``evaluate(f)`` runs the
    forward once: the gradient call replays only the backward sweep, and
    its result is bitwise the eager one."""

    def test_evaluate(self, nets):
        captured, eager = nets
        for fill in fills_for(captured.layout, 3, seed=20):
            captured.evaluate(fill, WEIGHTS, want_grad=False)
            assert_same_eval(captured.evaluate(fill, WEIGHTS),
                             eager.evaluate(fill, WEIGHTS))
        stats = captured.capture_stats()
        # Every gradient call reuses, the first one the trace's forward.
        assert stats["trace"] == 1 and stats["replay"] == 5
        assert stats["reuse"] == 3

    def test_evaluate_batch(self, nets):
        captured, eager = nets
        (fills,) = fills_for(captured.layout, 1, seed=21, batch=3)
        mask = np.array([True, False, True])
        captured.evaluate_batch(fills, WEIGHTS, want_grad=False)
        a = captured.evaluate_batch(fills, WEIGHTS, grad_mask=mask)
        b = eager.evaluate_batch(fills, WEIGHTS, grad_mask=mask)
        assert captured.capture_stats()["reuse"] == 1
        assert np.array_equal(a.s_plan, b.s_plan)
        assert np.array_equal(a.gradient, b.gradient)

    def test_evaluate_region(self, nets):
        captured, eager = nets
        trial, region, base = region_setup(captured)
        captured.evaluate_region(trial, region, base, WEIGHTS,
                                 want_grad=False)
        a = captured.evaluate_region(trial, region, base, WEIGHTS)
        assert captured.capture_stats()["reuse"] == 1
        assert_same_eval(a, eager.evaluate_region(trial, region, base,
                                                  WEIGHTS))

    def test_grad_then_grad_at_same_fill_reuses(self, nets):
        captured, eager = nets
        (fill,) = fills_for(captured.layout, 1, seed=22)
        captured.evaluate(fill, WEIGHTS)
        assert_same_eval(captured.evaluate(fill, WEIGHTS),
                         eager.evaluate(fill, WEIGHTS))
        assert captured.capture_stats()["reuse"] == 1


class TestReuseInvalidation:
    """Reuse never fires after anything the forward read has changed;
    the gradient then matches a fresh eager pass."""

    @staticmethod
    def check(net, call):
        before = net.capture_stats()["reuse"]
        assert_same_eval(call(net), call(eager_twin(net)))
        assert net.capture_stats()["reuse"] == before

    def test_one_ulp_fill_change(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=23)
        net.evaluate(fill, WEIGHTS, want_grad=False)
        bumped = fill.copy()
        bumped[1, 3, 4] = np.nextafter(bumped[1, 3, 4], np.inf)
        self.check(net, lambda n: n.evaluate(bumped, WEIGHTS))

    def test_one_ulp_region_fill_change(self, layout):
        net = build_net(layout, True)
        trial, region, base = region_setup(net)
        net.evaluate_region(trial, region, base, WEIGHTS, want_grad=False)
        bumped = trial.copy()
        bumped[0, 5, 6] = np.nextafter(bumped[0, 5, 6], np.inf)
        self.check(net, lambda n: n.evaluate_region(bumped, region, base,
                                                    WEIGHTS))

    def test_one_ulp_frozen_change(self, layout):
        net = build_net(layout, True)
        trial, _, base = region_setup(net)
        # An explicit core smaller than the grid (the planned one spans it
        # at this size): window (0, 0) reaches the pass only through
        # evaluate_region's `frozen` input.
        region = EvalRegion(r0=4, r1=8, c0=4, c1=8,
                            sr0=2, sr1=10, sc0=2, sc1=10)
        net.evaluate_region(trial, region, base, WEIGHTS, want_grad=False)
        bumped = base.copy()
        bumped[0, 0, 0] = np.nextafter(bumped[0, 0, 0], np.inf)
        self.check(net, lambda n: n.evaluate_region(trial, region, bumped,
                                                    WEIGHTS))

    def test_in_place_parameter_write(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=24)
        net.evaluate(fill, WEIGHTS, want_grad=False)
        param = net.unet.parameters()[0]
        param.data.flat[0] += 0.05
        self.check(net, lambda n: n.evaluate(fill, WEIGHTS))

    def test_in_place_running_statistic_write(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=25)
        net.evaluate(fill, WEIGHTS, want_grad=False)
        name, running = next((n, b) for n, b in net.unet.named_buffers()
                             if n.endswith("running_mean"))
        running[0] += 0.25
        self.check(net, lambda n: n.evaluate(fill, WEIGHTS))


class TestPlanLifecycle:
    def test_distinct_signatures_get_distinct_plans(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=7)
        (batch,) = fills_for(layout, 1, seed=7, batch=2)
        net.evaluate(fill, WEIGHTS)
        net.evaluate_batch(batch, WEIGHTS)
        stats = net.capture_stats()
        assert stats["trace"] == 2
        assert len(stats["plans"]) == 2
        assert stats["arena_bytes"] > 0

    def test_state_version_invalidates_plans(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=8)
        before = net.evaluate(fill, WEIGHTS)
        state = net.unet.state_dict()
        for name in state:
            if not name.startswith("buffer:"):
                state[name] = state[name] * 0.75
        net.unet.load_state_dict(state)
        after = net.evaluate(fill, WEIGHTS)
        # New weights, new key -> a second trace, not a stale replay.
        assert net.capture_stats()["trace"] == 2
        fresh = build_net(layout, False)
        fresh.unet.load_state_dict(state)
        assert after.s_plan == fresh.evaluate(fill, WEIGHTS).s_plan
        assert after.s_plan != before.s_plan

    def test_capture_disabled_uses_eager(self, layout):
        net = build_net(layout, False)
        (fill,) = fills_for(layout, 1, seed=9)
        net.evaluate(fill, WEIGHTS)
        net.evaluate(fill, WEIGHTS)
        stats = net.capture_stats()
        assert stats["trace"] == 0 and stats["replay"] == 0

    def test_training_mode_bypasses_capture(self, layout):
        net = build_net(layout, True)
        net.unet.train()
        (fill,) = fills_for(layout, 1, seed=10)
        net.evaluate(fill, WEIGHTS)
        assert net.capture_stats()["trace"] == 0
        net.unet.eval()
        net.evaluate(fill, WEIGHTS)
        assert net.capture_stats()["trace"] == 1

    def test_plan_lru_bounded(self, layout):
        net = build_net(layout, True)
        for k in range(1, MAX_CAPTURE_PLANS + 2):
            (batch,) = fills_for(layout, 1, seed=11, batch=k)
            net.evaluate_batch(batch, WEIGHTS)
        stats = net.capture_stats()
        assert stats["trace"] == MAX_CAPTURE_PLANS + 1
        assert len(stats["plans"]) == MAX_CAPTURE_PLANS  # oldest evicted
        assert not any("(1, 3," in key for key in stats["plans"])

    def test_evicted_plans_free_their_maps(self, layout):
        """The pool keeps only the zero-bordered maps of live plans, so
        tracing more signatures than the LRU holds does not grow it, and
        the arena counts every map it keeps."""
        net = build_net(layout, True)
        counts = []
        for k in range(1, 2 * MAX_CAPTURE_PLANS + 1):
            (batch,) = fills_for(layout, 1, seed=13, batch=k)
            net.evaluate_batch(batch, WEIGHTS)
            counts.append(len(net._pool._maps))
        assert counts[-1] == counts[MAX_CAPTURE_PLANS - 1] > 0
        maps = {id(buf): buf for buf in net._pool._maps.values()}
        # A call site views the first images of the map for its interior
        # and per-image shape.
        viewed = {id(view.base) for plan in net._plans.values()
                  for scratch in plan._recorder.scratches
                  for view in scratch.maps.values()}
        assert set(maps) == viewed
        held = {}
        for plan in net._plans.values():
            held.update(plan.buffers())
        assert set(maps) <= set(held)
        assert (sum(buf.nbytes for buf in maps.values())
                < net.capture_stats()["arena_bytes"])
        # The flat buffers too, and the pool re-binds live plans only.
        assert {id(buf) for buf in net._pool._flat.values()} <= set(held)
        assert set(net._pool.plans) == set(net._plans.values())

    def test_contended_lock_waits_and_replays(self, nets):
        """A call that finds another thread on the plan lock waits for
        it and replays, rather than running eagerly beside it."""
        captured, eager = nets
        warm, fill = fills_for(captured.layout, 2, seed=12)
        captured.evaluate(warm, WEIGHTS)  # trace the plan
        before = captured.capture_stats()
        holder = {}
        thread = threading.Thread(target=lambda: holder.setdefault(
            "ev", captured.evaluate(fill, WEIGHTS)))
        with captured._plans_lock:
            thread.start()
            time.sleep(0.2)
            assert thread.is_alive()  # waiting for the lock
        thread.join(timeout=30)
        assert not thread.is_alive()
        after = captured.capture_stats()
        assert after["replay"] == before["replay"] + 1
        assert after["bypass"] == before["bypass"]
        assert_same_eval(holder["ev"], eager.evaluate(fill, WEIGHTS))


class TestAllocationRegression:
    def test_replay_allocates_no_new_large_arrays(self, layout):
        net = build_net(layout, True)
        fills = fills_for(layout, 6, seed=12)
        net.evaluate(fills[0], WEIGHTS)  # trace
        net.evaluate(fills[1], WEIGHTS)  # warm replay
        assert net.capture_stats()["replay"] == 1

        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for fill in fills[2:]:
            result = net.evaluate(fill, WEIGHTS)
        del result
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()

        grown = [
            d for d in after.compare_to(before, "lineno")
            if d.size_diff > 32 * 1024
        ]
        assert not grown, [str(d) for d in grown]
        assert net.capture_stats()["replay"] == 5

    def test_interleaved_plans_allocate_no_new_large_arrays(self, layout):
        """Plans sharing the network's pool re-bind their views when it
        grows, then settle: warm interleaved replays keep nothing new."""
        net = build_net(layout, True)
        fills = fills_for(layout, 4, seed=13)
        batches = fills_for(layout, 4, seed=14, batch=3)
        trial, region, base = region_setup(net)
        calls = [lambda i: net.evaluate(fills[i], WEIGHTS),
                 lambda i: net.evaluate_batch(batches[i], WEIGHTS),
                 lambda i: net.evaluate_region(trial * (0.5 + 0.1 * i),
                                               region, base, WEIGHTS)]
        for i in range(2):  # trace, then warm every call site
            for call in calls:
                call(i)

        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for i in range(2, 4):
            for call in calls:
                result = call(i)
        del result
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()

        grown = [
            d for d in after.compare_to(before, "lineno")
            if d.size_diff > 32 * 1024
        ]
        assert not grown, [str(d) for d in grown]
        assert net.capture_stats()["trace"] == 3


class TestLeanArena:
    """Every plan of a network views one pool for its forward arrays,
    scratch, maps and gradient slots; interleaving plans must never leak
    one plan's pass into another's result."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.integers(1, 11), cols=st.integers(1, 11),
           ks=st.lists(st.integers(1, 3), min_size=2, max_size=3,
                       unique=True),
           corner=st.tuples(st.floats(0, 1), st.floats(0, 1)),
           seed=st.integers(0, 2**16))
    def test_interleaved_plans_match_eager(self, rows, cols, ks, corner, seed):
        gc.collect()  # plans are reference cycles; free earlier examples
        layout = make_design_a(rows=rows, cols=cols, seed=seed % 7)
        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2,
                    rng=seed % 5)
        norm = HeightNormalizer(2500.0, 300.0)
        captured = CmpNeuralNetwork(layout, unet, norm)
        eager = CmpNeuralNetwork(layout, unet, norm, capture=False)
        rng = np.random.default_rng(seed)
        slack = layout.slack_stack()

        active = np.zeros((rows, cols), bool)
        r, c = int(corner[0] * (rows - 1)), int(corner[1] * (cols - 1))
        active[r:r + 2, c:c + 2] = True
        region = captured.plan_region(active)
        base_fill = rng.random(slack.shape) * slack
        base = eager.predict_heights(base_fill)

        def batch_call(fills):
            return lambda net, **kw: net.evaluate_batch(fills, WEIGHTS, **kw)

        def region_call(trial):
            return lambda net, **kw: net.evaluate_region(trial, region, base,
                                                         WEIGHTS, **kw)

        calls = [batch_call(rng.random((k, *slack.shape)) * slack)
                 for k in ks]
        trial = base_fill.copy()
        trial[:, active] = (rng.random(slack.shape) * slack)[:, active]
        calls.insert(1, region_call(trial))
        # Every plan runs a forward-only call, twice over, then a gradient
        # call at the same inputs.  The plans share their forward buffers,
        # so each gradient call follows another plan's forward and
        # replays forward and backward.
        for call in calls + calls:
            call(captured, want_grad=False)
        for call in calls:
            got, want = call(captured), call(eager)
            assert np.array_equal(got.s_plan, want.s_plan)
            assert np.array_equal(got.heights, want.heights)
            assert np.array_equal(got.gradient, want.gradient)
        assert captured.capture_stats()["reuse"] == 0

    def test_gradient_after_another_plans_forward(self, nets):
        """Another plan's forward overwrites the buffers the plans share,
        so a gradient call at the first plan's inputs replays forward and
        backward, and gives the eager bits."""
        captured, eager = nets
        (fill,) = fills_for(captured.layout, 1, seed=33)
        (stack,) = fills_for(captured.layout, 1, seed=34, batch=2)
        captured.evaluate(fill, WEIGHTS, want_grad=False)
        captured.evaluate_batch(stack, WEIGHTS, want_grad=False)
        before = captured.capture_stats()
        assert_same_eval(captured.evaluate(fill, WEIGHTS),
                         eager.evaluate(fill, WEIGHTS))
        after = captured.capture_stats()
        assert after["replay"] == before["replay"] + 1
        assert after["reuse"] == before["reuse"]
        # Without another forward between, the same call reuses.
        captured.evaluate(fill, WEIGHTS, want_grad=False)
        assert_same_eval(captured.evaluate(fill, WEIGHTS),
                         eager.evaluate(fill, WEIGHTS))
        assert captured.capture_stats()["reuse"] == after["reuse"] + 1

    def test_arena_does_not_depend_on_trace_order(self, layout):
        """The same K = 1..4 plans hold the same arena whether traced
        largest first, in the order 1-4-3-2 or smallest first, right
        after tracing and once each plan has run again: a trace that
        grows a pool buffer re-binds the other plans to the grown one,
        so no superseded buffer survives it."""
        stacks = {k: fills_for(layout, 1, seed=40 + k, batch=k)[0]
                  for k in range(1, 5)}
        traced, rerun = [], []
        for order in ((4, 3, 2, 1), (1, 4, 3, 2), (1, 2, 3, 4)):
            gc.collect()
            net = build_net(layout, True)
            for k in order:
                net.evaluate_batch(stacks[k], WEIGHTS)
            traced.append(net.capture_stats()["arena_bytes"])
            for k in order:
                net.evaluate_batch(stacks[k], WEIGHTS, want_grad=k % 2 == 0)
            stats = net.capture_stats()
            assert stats["trace"] == 4 and len(stats["plans"]) == 4
            rerun.append(stats["arena_bytes"])
        assert traced[0] == traced[1] == traced[2]
        assert rerun == traced

    def test_small_batch_pads_into_the_large_batch_map(self, nets):
        """A K = 1 plan traced after a K = 4 plan pads into the first
        images of the K = 4 plan's maps, and its results are the eager
        bits, before and after the K = 4 plan runs again."""
        captured, eager = nets
        (stack,) = fills_for(captured.layout, 1, seed=35, batch=4)
        fills = fills_for(captured.layout, 2, seed=36)
        captured.evaluate_batch(stack, WEIGHTS)
        maps = {id(buf): buf for buf in captured._pool._maps.values()}
        assert_same_eval(captured.evaluate(fills[0], WEIGHTS),
                         eager.evaluate(fills[0], WEIGHTS))
        assert {id(buf) for buf in captured._pool._maps.values()} == set(maps)
        single = list(captured._plans.values())[-1]
        views = [view for scratch in single._recorder.scratches
                 for view in scratch.maps.values()]
        layers = captured.grid_shape[0]
        assert views
        for view in views:
            assert id(view.base) in maps
            assert view.shape[0] == layers
            assert view.base.shape[0] == 4 * layers
            assert view.base[:layers].ctypes.data == view.ctypes.data
        captured.evaluate_batch(stack, WEIGHTS)
        assert_same_eval(captured.evaluate(fills[1], WEIGHTS),
                         eager.evaluate(fills[1], WEIGHTS))

    def test_arena_bytes_counts_shared_buffers_once(self, layout):
        net = build_net(layout, True)
        (fill,) = fills_for(layout, 1, seed=30)
        (batch,) = fills_for(layout, 1, seed=31, batch=3)
        for _ in range(2):  # trace, then warm every call site
            net.evaluate(fill, WEIGHTS)
            net.evaluate_batch(batch, WEIGHTS)
        stats = net.capture_stats()
        plans = [p for p in net._plans.values()]
        held = {}
        for plan in plans:
            held.update(plan.buffers())
        assert stats["arena_bytes"] == sum(a.nbytes for a in held.values())
        assert sorted(stats["plans"].values()) == sorted(
            p.arena_bytes for p in plans)
        assert stats["arena_bytes"] < sum(stats["plans"].values())
        pool = set(map(id, net._pool._flat.values()))
        assert pool <= set(held)

    def test_inference_sweep_skips_parameter_only_nodes(self, layout):
        """An inference plan computes no parameter gradients, so its
        backward sweep holds no node fed only by parameters (each
        eval-mode norm is one node that reads its gain and shift
        directly, not through views of them)."""
        unet = UNet(NUM_FEATURE_CHANNELS, 1, rng=0)  # the default UNet
        net = CmpNeuralNetwork(layout, unet, HeightNormalizer(2500.0, 300.0))
        (fill,) = fills_for(layout, 1, seed=32)
        net.evaluate(fill, WEIGHTS)
        (plan,) = net._plans.values()
        params = {id(p) for p in unet.parameters()}
        fed = [n for n in plan._btopo
               if n._parents and all(id(p) in params for p in n._parents)]
        assert fed == []
