"""Benchmark: captured-graph replay vs. eager surrogate execution.

Reproduces the headline claim of the captured-graph replay PR: after one
eager trace, repeated ``CmpNeuralNetwork.evaluate`` calls replay a
preallocated plan — zero Python graph construction, zero intermediate
allocation — and are therefore substantially faster than rebuilding the
autodiff graph per call, while staying *bitwise identical* to eager.

Protocol (design A at the bench grid, fixed seeds, random weights —
wall-clock cost of a forward/backward pass does not depend on the
weights, and the bitwise-parity guarantee is weight-independent):

1. Build two networks over the same layout and identical weights, one
   with ``capture=True`` and one with ``capture=False``.
2. For each entry point (``evaluate``, ``evaluate_batch``,
   ``evaluate_region``, and ``probe``: a forward-only
   ``PROBE_STACK``-row ``evaluate_batch``, the stacks NMMSO scores its
   swarm in): warm both up, then time repeated calls over a rotating
   set of fills, asserting every captured result is bitwise equal to
   its eager counterpart.
3. In a separate pass (tracemalloc skews timings), measure the
   per-iteration allocation high-water delta for both modes.

4. Train a surrogate at the ``train`` perfbench workload's shape
   (design A 12×12, 12 samples, 20 epochs) twice: with the eager step
   loop below (one autodiff graph per step) and with ``train_unet`` (one
   parameter-gradient plan per batch shape, replayed), timing ms per
   step.

Gates:

* parity, in both modes: every captured result is bitwise the eager
  one, and the ``train`` row's checkpoint (parameters and running
  statistics) and epoch losses equal the eager loop's;
* in both modes: the network arena of the K = 1..4 plans is the same
  whichever order they were traced in;
* full mode only (``NEURFILL_BENCH_SMOKE=1`` shrinks the grids and
  iteration counts and records but does not enforce these):
  steady-state ``evaluate`` replay is **≥1.5× faster** than eager, and
  per-iteration array allocations drop by **≥90 %** after warmup.

Each inference row records the ``arena_bytes`` of the plan it replays
(``probe`` shares the K = 4 plan of ``batch``, as NMMSO's probe stacks
share the lockstep's); the report also holds the network's total, which
counts the shared pool once.  A fresh network then traces the same
K = 1..4 plans largest first and, on another, smallest first; its arena
must not depend on the order (gated in both modes): the plans view one
pool sized by the largest of them.

Writes ``BENCH_capture.json`` at the repo root.
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from _common import write_output
from repro.config import rng_from_seed
from repro.core.msp_sqp import PROBE_STACK
from repro.layout.designs import DESIGN_BUILDERS
from repro.nn import UNet
from repro.nn.loss import mse_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.surrogate import (
    NUM_FEATURE_CHANNELS,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityWeights,
)
from repro.surrogate.datagen import build_dataset
from repro.surrogate.train import TrainConfig, train_unet

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_capture.json"

SMOKE = os.environ.get("NEURFILL_BENCH_SMOKE", "0") not in ("0", "")

GRID = 12 if SMOKE else 20  # full mode matches the A bench grid
SEED = 5
BASE_CHANNELS = 8
DEPTH = 2
BATCH = 4
WARMUP = 2
TIMED_ITERS = 5 if SMOKE else 30
ALLOC_ITERS = 3 if SMOKE else 8
# the perfbench `train` workload's shape (its tiny size in smoke mode)
TRAIN_GRID, TRAIN_SAMPLES, TRAIN_EPOCHS = (8, 6, 2) if SMOKE else (12, 12, 20)
#: Trace orders of the K = 1..4 plans whose network arenas must agree.
TRACE_ORDERS = ((4, 3, 2, 1), (1, 2, 3, 4))
MIN_SPEEDUP = 1.5
MIN_ALLOC_REDUCTION = 0.90
WEIGHTS = PlanarityWeights(1.0, 20000.0, 1.0, 20000.0, 1.0, 20000.0)


def bind_network(layout, capture: bool) -> CmpNeuralNetwork:
    unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=BASE_CHANNELS,
                depth=DEPTH, rng=0)
    return CmpNeuralNetwork(layout, unet, HeightNormalizer(6000.0, 40.0),
                            capture=capture)


def make_fills(layout, count, seed, batch=None):
    rng = np.random.default_rng(seed)
    slack = layout.slack_stack()
    shape = slack.shape if batch is None else (batch, *slack.shape)
    return [rng.random(shape) * slack for _ in range(count)]


def assert_bitwise(a, b, mode):
    ok = (np.array_equal(np.asarray(a.s_plan), np.asarray(b.s_plan))
          and np.array_equal(a.heights, b.heights)
          and (a.gradient is None) == (b.gradient is None)
          and (a.gradient is None or np.array_equal(a.gradient, b.gradient)))
    if not ok:
        raise AssertionError(
            f"{mode}: captured result differs bitwise from eager — the "
            "replay fidelity guarantee is broken")


def make_calls(layout, captured, eager):
    """Per-mode callables ``call(net, i) -> result`` plus rotation sets."""
    fills = make_fills(layout, 4, seed=SEED)
    batches = make_fills(layout, 4, seed=SEED + 1, batch=BATCH)
    probes = make_fills(layout, 4, seed=SEED + 3, batch=PROBE_STACK)

    base_fill = fills[0]
    base = eager.predict_heights(base_fill)
    active = np.zeros((GRID, GRID), bool)
    r0 = GRID // 3
    active[r0:r0 + 3, r0:r0 + 3] = True
    region = captured.plan_region(active)
    trials = []
    for k, src in enumerate(make_fills(layout, 4, seed=SEED + 2)):
        trial = base_fill.copy()
        trial[:, r0:r0 + 3, r0:r0 + 3] = src[:, r0:r0 + 3, r0:r0 + 3]
        trials.append(trial)

    return {
        "fill": lambda net, i: net.evaluate(fills[i % len(fills)], WEIGHTS),
        "batch": lambda net, i: net.evaluate_batch(
            batches[i % len(batches)], WEIGHTS),
        "region": lambda net, i: net.evaluate_region(
            trials[i % len(trials)], region, base, WEIGHTS),
        "probe": lambda net, i: net.evaluate_batch(
            probes[i % len(probes)], WEIGHTS, want_grad=False),
    }


def timed_loop(call, net, iters):
    start = time.perf_counter()
    for i in range(iters):
        call(net, i)
    return (time.perf_counter() - start) / iters


def alloc_per_iter(call, net, iters):
    """Mean per-call allocation high-water delta, in bytes.

    Eager execution allocates the whole intermediate graph every call, so
    its peak delta is the graph footprint; a warm replay only allocates
    the result copies handed back to the caller.
    """
    call(net, 0)  # ensure warm under tracemalloc too
    deltas = []
    for i in range(iters):
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        call(net, i)
        _, peak = tracemalloc.get_traced_memory()
        deltas.append(max(0, peak - current))
    return float(np.mean(deltas))


def eager_train(unet, dataset, config):
    """The eager step loop: one autodiff graph built per step."""
    X = dataset.flat_inputs()
    Y = dataset.flat_targets()
    n = X.shape[0]
    rng = rng_from_seed(config.seed)
    optimizer = Adam(unet.parameters(), lr=config.learning_rate)
    losses = []
    unet.train()
    for _ in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            optimizer.zero_grad()
            pred = unet(Tensor(X[idx]))
            target = Tensor(Y[idx])
            loss = mse_loss(pred, target)
            if config.variance_weight > 0:
                mismatch = pred.var(axis=(2, 3)) - target.var(axis=(2, 3))
                loss = loss + (mismatch * mismatch).mean() \
                    * config.variance_weight
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    unet.eval()
    return losses


def arena_by_trace_order(layout) -> dict[str, int]:
    """Network arena of the same K = 1..4 plans traced in each of
    :data:`TRACE_ORDERS`, one fresh network per order."""
    stacks = {k: make_fills(layout, 1, seed=SEED + 10 + k, batch=k)[0]
              for k in TRACE_ORDERS[0]}
    arenas = {}
    for order in TRACE_ORDERS:
        net = bind_network(layout, capture=True)
        for k in order:
            net.evaluate_batch(stacks[k], WEIGHTS)
        arenas["-".join(map(str, order))] = net.capture_stats()["arena_bytes"]
    return arenas


def train_row() -> dict:
    """Eager loop vs ``train_unet``: ms per step and checkpoint parity."""
    layout = DESIGN_BUILDERS["A"](rows=TRAIN_GRID, cols=TRAIN_GRID)
    dataset = build_dataset([layout], TRAIN_SAMPLES, TRAIN_GRID, TRAIN_GRID,
                            seed=0)
    train_set, _ = dataset.split(test_fraction=0.2, seed=0)
    config = TrainConfig(epochs=TRAIN_EPOCHS)
    rows = train_set.flat_inputs().shape[0]
    steps = TRAIN_EPOCHS * -(-rows // config.batch_size)

    def fresh():
        return UNet(NUM_FEATURE_CHANNELS, 1, base_channels=BASE_CHANNELS,
                    depth=DEPTH, rng=0)

    eager, captured = fresh(), fresh()
    start = time.perf_counter()
    losses = eager_train(eager, train_set, config)
    t_eager = (time.perf_counter() - start) / steps
    start = time.perf_counter()
    history = train_unet(captured, train_set, config)
    t_captured = (time.perf_counter() - start) / steps
    eager_state, captured_state = eager.state_dict(), captured.state_dict()
    if history.losses != losses or any(
            eager_state[k].tobytes() != captured_state[k].tobytes()
            for k in eager_state):
        raise AssertionError(
            "train: the captured checkpoint differs from the eager loop's")
    return {
        "mode": "train",
        "gated": False,
        "grid": [TRAIN_GRID, TRAIN_GRID],
        "samples": TRAIN_SAMPLES,
        "epochs": TRAIN_EPOCHS,
        "rows": rows,
        "steps": steps,
        "t_eager_ms": 1e3 * t_eager,
        "t_captured_ms": 1e3 * t_captured,
        "speedup": t_eager / t_captured,
        "bitwise": True,
    }


def main() -> None:
    layout = DESIGN_BUILDERS["A"](rows=GRID, cols=GRID, seed=SEED)
    captured = bind_network(layout, capture=True)
    eager = bind_network(layout, capture=False)

    print(f"bench_capture: design A {GRID}x{GRID} (smoke={SMOKE}), "
          f"base_channels={BASE_CHANNELS} depth={DEPTH}")

    calls = make_calls(layout, captured, eager)
    rows = []
    for mode, call in calls.items():
        # Parity + warmup: every captured result checked against eager.
        for i in range(WARMUP + 2):
            assert_bitwise(call(captured, i), call(eager, i), mode)
        plans = captured.capture_stats()["plans"]
        plan_key = list(plans)[-1]  # the plan table is in LRU order

        t_eager = timed_loop(call, eager, TIMED_ITERS)
        t_captured = timed_loop(call, captured, TIMED_ITERS)

        tracemalloc.start()
        try:
            alloc_eager = alloc_per_iter(call, eager, ALLOC_ITERS)
            alloc_captured = alloc_per_iter(call, captured, ALLOC_ITERS)
        finally:
            tracemalloc.stop()

        speedup = (t_eager / t_captured) if t_captured > 0 else float("inf")
        reduction = (1.0 - alloc_captured / alloc_eager
                     if alloc_eager > 0 else 0.0)
        rows.append({
            "mode": mode,
            "gated": mode == "fill",
            "t_eager_ms": 1e3 * t_eager,
            "t_captured_ms": 1e3 * t_captured,
            "speedup": speedup,
            "alloc_eager_bytes": alloc_eager,
            "alloc_captured_bytes": alloc_captured,
            "alloc_reduction": reduction,
            "arena_bytes": plans[plan_key],
            "bitwise": True,
        })
        print(f"  {mode:>7}: eager {1e3 * t_eager:7.2f}ms / "
              f"replay {1e3 * t_captured:7.2f}ms  speedup {speedup:5.2f}x  "
              f"alloc -{100 * reduction:5.1f}%  "
              f"arena {plans[plan_key] / 1e6:5.2f} MB  bitwise ok")

    train = train_row()
    rows.append(train)
    print(f"  {'train':>7}: eager {train['t_eager_ms']:7.2f}ms / "
          f"replay {train['t_captured_ms']:7.2f}ms per step  "
          f"speedup {train['speedup']:5.2f}x  checkpoint bitwise ok")

    stats = captured.capture_stats()
    by_order = arena_by_trace_order(layout)
    order_equal = len(set(by_order.values())) == 1
    print("  arena by trace order: " + ", ".join(
        f"{order} {arena / 1e6:.2f} MB" for order, arena in by_order.items()))
    gated = [r for r in rows if r["gated"]]
    gate_passed = None
    if not SMOKE:
        gate_passed = all(
            r["speedup"] >= MIN_SPEEDUP
            and r["alloc_reduction"] >= MIN_ALLOC_REDUCTION
            for r in gated)

    report = {
        "bench": "capture",
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "design": "A",
        "grid": [GRID, GRID],
        "seed": SEED,
        "surrogate": {"base_channels": BASE_CHANNELS, "depth": DEPTH},
        "batch": BATCH,
        "timed_iters": TIMED_ITERS,
        "alloc_iters": ALLOC_ITERS,
        "rows": rows,
        "capture_stats": {
            "trace": stats["trace"], "replay": stats["replay"],
            "miss": stats["miss"], "bypass": stats["bypass"],
            "arena_bytes": stats["arena_bytes"],
        },
        "arena_by_trace_order": by_order,
        "gate": {"min_speedup": MIN_SPEEDUP,
                 "min_alloc_reduction": MIN_ALLOC_REDUCTION,
                 "enforced": not SMOKE, "passed": gate_passed,
                 "arena_order_equal": order_equal},
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [f"Host: {os.cpu_count()} CPUs, numpy {np.__version__}, "
             f"{'smoke' if SMOKE else 'full'} mode",
             f"Capture bench (design A {GRID}x{GRID}, smoke={SMOKE}; "
             f"train: A {TRAIN_GRID}x{TRAIN_GRID}, {TRAIN_SAMPLES} samples, "
             f"{TRAIN_EPOCHS} epochs, ms per step)",
             f"{'mode':>8} {'t_eager':>9} {'t_replay':>9} {'speedup':>8} "
             f"{'alloc-':>8} {'arena':>9} {'bitwise':>8}"]
    for r in rows:
        alloc = (f"{100 * r['alloc_reduction']:>7.1f}%"
                 if "alloc_reduction" in r else f"{'-':>8}")
        arena = (f"{r['arena_bytes'] / 1e6:>6.2f} MB"
                 if "arena_bytes" in r else f"{'-':>9}")
        lines.append(
            f"{r['mode']:>8} {r['t_eager_ms']:>7.2f}ms "
            f"{r['t_captured_ms']:>7.2f}ms {r['speedup']:>7.2f}x "
            f"{alloc} {arena} {'ok' if r['bitwise'] else 'FAIL':>8}")
    lines.append(f"network arena (shared pool counted once): "
                 f"{stats['arena_bytes'] / 1e6:.2f} MB")
    lines.append("network arena of the K = 1..4 plans by trace order: "
                 + ", ".join(f"{order} {arena / 1e6:.2f} MB"
                             for order, arena in by_order.items()))
    write_output("capture", "\n".join(lines))
    print(f"wrote {JSON_PATH}")

    if not order_equal:
        raise AssertionError(
            f"gate failed: the network arena depends on trace order {by_order}")

    if not SMOKE and not gate_passed:
        raise AssertionError(
            "gate failed: " + "; ".join(
                f"{r['mode']}: speedup {r['speedup']:.2f}x "
                f"(need {MIN_SPEEDUP}x), alloc reduction "
                f"{100 * r['alloc_reduction']:.1f}% "
                f"(need {100 * MIN_ALLOC_REDUCTION:.0f}%)"
                for r in gated))


def test_capture_replay():
    """Pytest entry point (CI runs the benches through pytest)."""
    main()


if __name__ == "__main__":
    main()
