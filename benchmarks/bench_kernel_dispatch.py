"""Shape-rule conv dispatch and the cached-smoother pressure solve.

Two perf levers (see DESIGN.md "Shape-rule kernel dispatch"):

* conv shape classes — the shape rule's backend vs the im2col reference
  it is parity-tested against;
* repeated ``solve_pressure`` — the cached separable smoother (+ the
  no-lift-off closed form) vs a scipy ``gaussian_filter`` replica of the
  seed implementation.

Results go to ``benchmarks/output/kernel_dispatch.txt`` and, machine
readable, to ``BENCH_kernel_dispatch.json`` at the repo root.

Environment knobs:

* ``NEURFILL_BENCH_SMOKE=1`` shrinks every shape so the whole file runs
  in seconds (CI smoke mode); smoke mode asserts parity only, speedup
  assertions apply in full mode.
"""

import json
import os
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from _common import write_output
from repro.cmp import DEFAULT_PROCESS, solve_pressure
from repro.cmp.pad import clear_smoother_cache
from repro.nn import Tensor, conv2d, dispatch

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel_dispatch.json"

SMOKE = os.environ.get("NEURFILL_BENCH_SMOKE", "0") not in ("0", "")

# (name, input (B,C,H,W), kernel (O,C,kh,kw)); H/W are pre-padded sizes.
if SMOKE:
    CONV_CLASSES = [
        ("large_map_3x3", (1, 4, 144, 144), (4, 4, 3, 3)),
        ("pointwise_1x1", (1, 8, 144, 144), (4, 8, 1, 1)),
        ("unet_batch_3x3", (4, 4, 32, 32), (4, 4, 3, 3)),
    ]
    PRESSURE_CALLS, PRESSURE_GRID = 30, (3, 16, 16)
else:
    CONV_CLASSES = [
        ("large_map_3x3", (1, 8, 384, 384), (8, 8, 3, 3)),
        ("pointwise_1x1", (1, 16, 256, 256), (8, 16, 1, 1)),
        ("unet_batch_3x3", (8, 8, 64, 64), (8, 8, 3, 3)),
    ]
    PRESSURE_CALLS, PRESSURE_GRID = 200, (3, 16, 16)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
def _bench_conv_classes():
    rng = np.random.default_rng(0)
    rows = []
    for name, xshape, wshape in CONV_CLASSES:
        xp = rng.normal(size=xshape)
        w = rng.normal(size=wshape)
        ref = dispatch._corr_im2col(xp, w, 1)
        got = dispatch.corr2d(xp, w)
        parity = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        t_ref = _best_of(lambda: dispatch._corr_im2col(xp, w, 1))
        t_rule = _best_of(lambda: dispatch.corr2d(xp, w))
        rows.append({
            "class": name,
            "input": list(xshape),
            "kernel": list(wshape),
            "backend": dispatch._heuristic("corr", *wshape[2:]),
            "im2col_ms": round(t_ref * 1e3, 3),
            "rule_ms": round(t_rule * 1e3, 3),
            "speedup": round(t_ref / t_rule, 2),
            "max_rel_dev": parity,
        })
    return rows


def _bench_backward_memory():
    """Peak allocation of a conv2d forward+backward (satellite: the
    backward no longer retains the padded input copy from the forward)."""
    B, C, H, O = (1, 4, 96, 4) if SMOKE else (2, 8, 192, 8)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(B, C, H, H)), requires_grad=True)
    w = Tensor(rng.normal(size=(O, C, 3, 3)), requires_grad=True)
    tracemalloc.start()
    out = conv2d(x, w, padding=1)
    out.backward(np.ones(out.shape))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    activation_bytes = out.data.nbytes
    return {
        "input": [B, C, H, H],
        "peak_traced_mib": round(peak / 2**20, 2),
        "peak_over_activation": round(peak / activation_bytes, 1),
        "max_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "note": ("backward recomputes the padded input from x.data instead "
                 "of retaining the forward's padded copy in the closure"),
    }


# ----------------------------------------------------------------------
def _legacy_solve_pressure(envelope, window_um, params,
                           max_iter=25, tol=1e-10):
    """Seed implementation replica: per-call scipy smoothing + fixed point."""
    from scipy.ndimage import gaussian_filter

    sigma = max(params.planarization_length_um / window_um, 1e-6)
    envelope = np.asarray(envelope, dtype=float)
    if envelope.ndim == 2:
        reference = gaussian_filter(envelope, sigma, mode="nearest")
    else:
        reference = np.stack(
            [gaussian_filter(layer, sigma, mode="nearest")
             for layer in envelope]
        )
    base = 1.0 + params.pad_stiffness * (envelope - reference)
    p0 = params.pressure_psi
    scale = np.array(1.0) if envelope.ndim == 2 else np.ones(
        (envelope.shape[0], 1, 1))
    for _ in range(max_iter):
        pressure = np.maximum(base * scale, 0.0) * p0
        mean = pressure.mean(axis=(-2, -1), keepdims=True)
        degenerate = mean <= 0
        if np.any(degenerate):
            pressure = np.where(degenerate, p0, pressure)
            mean = np.where(degenerate, p0, mean)
        if float(np.max(np.abs(mean - p0))) <= tol * p0:
            break
        scale = scale * (p0 / mean)
    return pressure


def _bench_solve_pressure():
    rng = np.random.default_rng(2)
    envelopes = rng.normal(0, 300, size=(PRESSURE_CALLS, *PRESSURE_GRID))

    try:
        import scipy.ndimage  # noqa: F401
        have_scipy = True
    except ImportError:
        have_scipy = False

    clear_smoother_cache()
    t0 = time.perf_counter()
    cached = [solve_pressure(env, 100.0, DEFAULT_PROCESS) for env in envelopes]
    cached_s = time.perf_counter() - t0

    result = {
        "calls": PRESSURE_CALLS,
        "grid": list(PRESSURE_GRID),
        "cached_s": round(cached_s, 4),
        "per_call_us": round(cached_s / PRESSURE_CALLS * 1e6, 1),
    }
    if have_scipy:
        t0 = time.perf_counter()
        legacy = [_legacy_solve_pressure(env, 100.0, DEFAULT_PROCESS)
                  for env in envelopes]
        legacy_s = time.perf_counter() - t0
        parity = float(max(
            np.max(np.abs(c - l)) for c, l in zip(cached, legacy)))
        result.update({
            "scipy_baseline_s": round(legacy_s, 4),
            "speedup": round(legacy_s / cached_s, 2),
            "max_abs_dev_psi": parity,
        })
    else:
        result["note"] = "scipy unavailable: baseline replica skipped"
    return result


# ----------------------------------------------------------------------
def test_kernel_dispatch(benchmark):
    conv_rows = benchmark.pedantic(_bench_conv_classes, rounds=1, iterations=1)
    backward_mem = _bench_backward_memory()
    pressure = _bench_solve_pressure()

    report = {
        "smoke": SMOKE,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "conv_classes": conv_rows,
        "conv_backward_memory": backward_mem,
        "solve_pressure": pressure,
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [f"Conv dispatch ({'smoke' if SMOKE else 'full'} mode, "
             f"nproc {report['nproc']}):"]
    for row in conv_rows:
        lines.append(
            f"  {row['class']:>16}: {row['backend']:>6} "
            f"{row['im2col_ms']:8.2f}ms -> {row['rule_ms']:8.2f}ms "
            f"({row['speedup']:.2f}x, rel dev {row['max_rel_dev']:.1e})"
        )
    lines.append(
        f"Conv backward peak: {backward_mem['peak_traced_mib']}MiB traced "
        f"({backward_mem['peak_over_activation']}x the output activation; "
        f"RSS {backward_mem['max_rss_mib']}MiB)"
    )
    if "speedup" in pressure:
        lines.append(
            f"solve_pressure x{PRESSURE_CALLS} on {PRESSURE_GRID}: "
            f"{pressure['scipy_baseline_s']:.3f}s -> {pressure['cached_s']:.3f}s "
            f"({pressure['speedup']:.2f}x, dev {pressure['max_abs_dev_psi']:.1e} psi)"
        )
    else:
        lines.append(
            f"solve_pressure x{PRESSURE_CALLS}: {pressure['cached_s']:.3f}s "
            f"(no scipy baseline)"
        )
    write_output("kernel_dispatch", "\n".join(lines))

    # Correctness always; speedups only in full mode (smoke shapes are
    # deliberately too small for timings to mean much).
    for row in conv_rows:
        assert row["max_rel_dev"] < 1e-9
    if not SMOKE:
        (large,) = [r for r in conv_rows if r["class"] == "large_map_3x3"]
        assert large["speedup"] >= 1.5, "large_map_3x3 below 1.5x"
        if "speedup" in pressure:
            assert pressure["speedup"] >= 2.0, "cached smoother below 2x"
            assert pressure["max_abs_dev_psi"] < 1e-9
