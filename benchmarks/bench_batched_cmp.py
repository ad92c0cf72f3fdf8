"""Batched CMP simulation: one vectorised polish vs a Python loop.

The polish pipeline operates over arbitrary leading axes (DESIGN.md
"Batched CMP simulator"), so ``simulate_batch`` advances a whole
``(B, L, N, M)`` stack of layouts per time step instead of paying the
interpreter per layout.  The contract is **bitwise** identity to the
loop, so the speedup is pure overhead amortisation — it needs no extra
cores (unlike the datagen process pool) and composes with it.

Four measurements:

* raw simulator — batched vs looped at several batch sizes, in both the
  default and the multilevel (``stack_topography``) mode;
* teacher datagen end-to-end — ``build_dataset`` with ``sim_batch`` vs
  without (byte-identical datasets);
* numerical-gradient end-to-end — the Cai baseline's full
  finite-difference pass through ``quality_batch`` vs one simulator
  call per probe (bitwise-identical gradients);
* simulator-assisted selection — NeurFill's PKB ranking of its 9
  candidates on designs A/B/C at ``_common.BENCH_GRIDS``: one
  ``evaluate_solution`` polish per candidate vs one batched polish
  (``simulator_qualities``; bitwise-identical qualities).

Results go to ``benchmarks/output/batched_cmp.txt`` and, machine
readable, to ``BENCH_batched_cmp.json`` at the repo root.

Environment knobs:

* ``NEURFILL_BENCH_SMOKE=1`` shrinks batch sizes and grids so the whole
  file runs in seconds (CI smoke mode); speedup assertions only apply
  in full mode, bitwise parity is asserted in both.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import BENCH_GRIDS, write_output
from repro.baselines import SimulatorQuality
from repro.cmp import CmpSimulator, ProcessParams
from repro.core import (FillProblem, ScoreCoefficients, evaluate_solution,
                        fill_for_target_density, target_density_range)
from repro.core.neurfill import simulator_qualities
from repro.layout import (
    apply_fill,
    make_design_a,
    make_design_b,
    make_design_c,
    stack_features,
)
from repro.surrogate import build_dataset

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_batched_cmp.json"

SMOKE = os.environ.get("NEURFILL_BENCH_SMOKE", "0") not in ("0", "")

if SMOKE:
    BATCH_SIZES = (1, 4, 16)
    SIM_GRID = 10
    SIM_PARAMS = ProcessParams(polish_time_s=15.0)
    DATAGEN_COUNT, DATAGEN_GRID, DATAGEN_SIM_BATCH = 6, 8, 6
    NUMGRAD_GRID, NUMGRAD_SIM_BATCH = 5, 25
    SELECTION_GRIDS = {key: (8, 8) for key in BENCH_GRIDS}
    SELECTION_REPEATS = 1
else:
    BATCH_SIZES = (1, 4, 16, 64)
    SIM_GRID = 12
    SIM_PARAMS = ProcessParams()
    DATAGEN_COUNT, DATAGEN_GRID, DATAGEN_SIM_BATCH = 16, 10, 8
    NUMGRAD_GRID, NUMGRAD_SIM_BATCH = 6, 36
    SELECTION_GRIDS = BENCH_GRIDS
    SELECTION_REPEATS = 5

PKB_CANDIDATES = 9
RESULT_FIELDS = ("height", "dishing", "erosion", "pressure", "step_height")
MAKERS = (make_design_a, make_design_b, make_design_c)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _feature_stacks(count, rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    stacks = []
    for k in range(count):
        layout = MAKERS[k % len(MAKERS)](rows=rows, cols=cols)
        stacks.append(apply_fill(
            layout, rng.uniform(0.0, 0.9) * layout.slack_stack()))
    return stacks


def _max_abs_diff(batched, solos):
    worst = 0.0
    for name in RESULT_FIELDS:
        arr = getattr(batched, name)
        for k, solo in enumerate(solos):
            worst = max(worst, float(np.max(np.abs(
                arr[k] - getattr(solo, name)))))
    return worst


def _bench_simulator(stacked_mode):
    params = (SIM_PARAMS.scaled(stack_topography=True)
              if stacked_mode else SIM_PARAMS)
    sim = CmpSimulator(params)
    rows = []
    for batch in BATCH_SIZES:
        stacks = _feature_stacks(batch, SIM_GRID, SIM_GRID, seed=batch)
        prestacked = stack_features(stacks)
        sim.simulate(stacks[0])  # warm the smoother cache
        solos, looped_s = _timed(
            lambda: [sim.simulate(s) for s in stacks])
        batched, batched_s = _timed(
            lambda: sim.simulate_batch(prestacked))
        rows.append({
            "batch": batch,
            "looped_s": round(looped_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(looped_s / batched_s, 2),
            "max_abs_diff": _max_abs_diff(batched, solos),
        })
    return rows


def _bench_datagen():
    sources = [make_design_a(rows=DATAGEN_GRID, cols=DATAGEN_GRID),
               make_design_b(rows=DATAGEN_GRID, cols=DATAGEN_GRID)]
    build = lambda sim_batch: build_dataset(
        sources, count=DATAGEN_COUNT, rows=DATAGEN_GRID, cols=DATAGEN_GRID,
        seed=0, sim_batch=sim_batch)
    unbatched, unbatched_s = _timed(lambda: build(1))
    batched, batched_s = _timed(lambda: build(DATAGEN_SIM_BATCH))
    return {
        "count": DATAGEN_COUNT,
        "sim_batch": DATAGEN_SIM_BATCH,
        "unbatched_s": round(unbatched_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(unbatched_s / batched_s, 2),
        "byte_identical": (
            unbatched.inputs.tobytes() == batched.inputs.tobytes()
            and unbatched.targets.tobytes() == batched.targets.tobytes()),
    }


def _bench_numgrad():
    layout = make_design_a(rows=NUMGRAD_GRID, cols=NUMGRAD_GRID)
    simulator = CmpSimulator()
    problem = FillProblem(
        layout, ScoreCoefficients.calibrated(layout, simulator))
    fill = 0.4 * problem.upper

    model = SimulatorQuality(problem, simulator)
    (v_seq, g_seq), seq_s = _timed(
        lambda: model.value_and_numerical_grad(fill, eps=500.0))
    seq_sims = model.simulations

    model = SimulatorQuality(problem, simulator)
    (v_bat, g_bat), bat_s = _timed(
        lambda: model.value_and_numerical_grad(
            fill, eps=500.0, sim_batch=NUMGRAD_SIM_BATCH))
    return {
        "variables": int(np.prod(layout.shape)),
        "sim_batch": NUMGRAD_SIM_BATCH,
        "sequential_s": round(seq_s, 4),
        "batched_s": round(bat_s, 4),
        "speedup": round(seq_s / bat_s, 2),
        "sequential_simulations": seq_sims,
        "batched_simulations": model.simulations,
        "grad_max_abs_diff": float(np.max(np.abs(g_bat - g_seq))),
        "value_equal": bool(v_bat == v_seq),
    }


def _bench_selection():
    """PKB's candidate ranking: looped ``evaluate_solution`` vs batched.

    Each side's time is the best of ``SELECTION_REPEATS`` alternating
    runs after one untimed warm-up run each (the pad smoother cache is
    built once per grid).
    """
    simulator = CmpSimulator()
    rows = []
    for key, make in zip("ABC", MAKERS):
        grid_rows, grid_cols = SELECTION_GRIDS[key]
        layout = make(rows=grid_rows, cols=grid_cols)
        problem = FillProblem(
            layout, ScoreCoefficients.calibrated(layout, simulator))
        lo, hi = target_density_range(layout)
        fills = np.stack([
            fill_for_target_density(layout, lo + frac * (hi - lo))
            for frac in np.linspace(0.0, 1.0, PKB_CANDIDATES)])
        loop = lambda: np.array([
            evaluate_solution(problem, fill, "probe",
                              simulator=simulator).quality
            for fill in fills])
        batch = lambda: simulator_qualities(problem, simulator, fills)
        loop()
        batch()
        looped_s, batched_s = [], []
        for _ in range(SELECTION_REPEATS):
            looped, seconds = _timed(loop)
            looped_s.append(seconds)
            batched, seconds = _timed(batch)
            batched_s.append(seconds)
        rows.append({
            "design": key,
            "grid": [grid_rows, grid_cols],
            "looped_s": round(min(looped_s), 4),
            "batched_s": round(min(batched_s), 4),
            "speedup": round(min(looped_s) / min(batched_s), 2),
            "bitwise_equal": looped.tobytes() == batched.tobytes(),
        })
    looped_total = sum(r["looped_s"] for r in rows)
    batched_total = sum(r["batched_s"] for r in rows)
    return {
        "candidates": PKB_CANDIDATES,
        "repeats": SELECTION_REPEATS,
        "designs": rows,
        "looped_s": round(looped_total, 4),
        "batched_s": round(batched_total, 4),
        "speedup": round(looped_total / batched_total, 2),
    }


def test_batched_cmp(benchmark):
    default_rows = _bench_simulator(stacked_mode=False)
    stacked_rows, _ = benchmark.pedantic(
        lambda: _timed(lambda: _bench_simulator(stacked_mode=True)),
        rounds=1, iterations=1)
    datagen = _bench_datagen()
    numgrad = _bench_numgrad()
    selection = _bench_selection()

    report = {
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "grid": [3, SIM_GRID, SIM_GRID],
        "simulator_default": default_rows,
        "simulator_stacked": stacked_rows,
        "datagen": datagen,
        "numgrad": numgrad,
        "selection": selection,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [f"Host: {os.cpu_count()} CPUs, numpy {np.__version__}, "
             f"{'smoke' if SMOKE else 'full'} mode",
             f"Batched CMP simulator (3x{SIM_GRID}x{SIM_GRID} layouts, "
             f"{SIM_PARAMS.num_steps} steps)"]
    for label, rows in (("default", default_rows),
                        ("stacked", stacked_rows)):
        for row in rows:
            lines.append(
                f"  {label:8s} B={row['batch']:3d}: looped "
                f"{row['looped_s']:7.3f}s, batched {row['batched_s']:7.3f}s "
                f"({row['speedup']:.2f}x, max |diff| "
                f"{row['max_abs_diff']:.1e})"
            )
    lines.append(
        f"Datagen e2e ({datagen['count']} samples, sim_batch "
        f"{datagen['sim_batch']}): {datagen['unbatched_s']:.2f}s -> "
        f"{datagen['batched_s']:.2f}s ({datagen['speedup']:.2f}x, "
        f"byte-identical: {datagen['byte_identical']})"
    )
    lines.append(
        f"Numgrad e2e ({numgrad['variables']} variables, sim_batch "
        f"{numgrad['sim_batch']}): {numgrad['sequential_s']:.2f}s -> "
        f"{numgrad['batched_s']:.2f}s ({numgrad['speedup']:.2f}x, grad "
        f"max |diff| {numgrad['grad_max_abs_diff']:.1e})"
    )
    for row in selection["designs"]:
        lines.append(
            f"Selection {row['design']} {row['grid'][0]}x{row['grid'][1]} "
            f"({selection['candidates']} PKB candidates): looped "
            f"{row['looped_s']:.3f}s, batched {row['batched_s']:.3f}s "
            f"({row['speedup']:.2f}x, bitwise: {row['bitwise_equal']})"
        )
    lines.append(
        f"Selection total: {selection['looped_s']:.3f}s -> "
        f"{selection['batched_s']:.3f}s ({selection['speedup']:.2f}x)"
    )
    write_output("batched_cmp", "\n".join(lines))

    # The fidelity contract is bitwise — always asserted, even in smoke.
    for row in default_rows + stacked_rows:
        assert row["max_abs_diff"] == 0.0, row
    assert datagen["byte_identical"]
    assert numgrad["grad_max_abs_diff"] == 0.0
    assert numgrad["value_equal"]
    for row in selection["designs"]:
        assert row["bitwise_equal"], row
    # Same honest simulation count, sequential pays one extra base eval.
    assert numgrad["batched_simulations"] == numgrad["variables"] + 1

    # Speedups are host-dependent; gate only in full mode.
    if not SMOKE:
        at_16 = next(r for r in default_rows if r["batch"] == 16)
        assert at_16["speedup"] >= 2.0, at_16
        assert numgrad["speedup"] > 1.0, numgrad
        assert selection["speedup"] >= 1.5, selection
