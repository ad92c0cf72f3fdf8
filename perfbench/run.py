"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-fill --seed 1 --seconds 15 \\
        --trace 0

Set-up runs several times and reports its median (``setup_s``); the
timed phase then repeats the workload's seeded script until ``--seconds``
is spent and reports medians over those passes.  Times are rescaled to a
fixed host speed by a reference kernel timed between intervals
(:class:`perfbench.harness.HostClock`); raw seconds are printed too.
``--trace 1`` spends half the budget on untraced passes, runs one traced
pass with span wrappers around every layer's public calls
(``perfbench/tracing.py``) and reports the per-layer metrics instead.
Every pass is checked; the last stdout line is ``{"correct",
"attempted", "failed", "metrics"}``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from statistics import median
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.harness import BenchError, Ledger  # noqa: E402

SPEC_PATH = harness.ROOT / "BENCHMARK.json"


def _spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's "
                             "own tests")
    return parser.parse_args(argv)


def measure(args) -> tuple[dict, Ledger, dict]:
    """Set up, run passes, optionally trace; returns metrics and checks."""
    # the reference clock starts before ``repro`` is imported
    clock = harness.HostClock()
    workload = None
    workdir = harness.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        from perfbench import tracing
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; expected "
                             f"one of {sorted(WORKLOADS)}")
        cls = WORKLOADS[args.workload]
        ledger = Ledger()
        record: dict = {"host": harness.host_facts(args.seed),
                        "workload": args.workload, "size": args.size}
        setup_raw, digests = [], set()
        for rep in range(cls.setup_reps):
            if workload is not None:
                workload.close()
            workload = cls(args.seed, args.size, workdir / f"setup-{rep}",
                           clock)
            t0 = time.perf_counter()
            workload.setup()
            setup_raw.append(time.perf_counter() - t0)
            digests.add(workload.setup_digest)
            clock.sample()
            harness.release_memory()
        if len(digests) != 1:
            ledger.problem("set-up is not deterministic: checkpoint/parent "
                           f"sha256 differs across {cls.setup_reps} set-ups")

        budget = args.seconds * (0.5 if args.trace else 1.0)
        passes = []
        t0 = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(workload.run_pass())
            clock.sample()
            harness.release_memory()
            if len(passes) == 1:
                # fixed work (set-ups + one pass): independent of how many
                # passes fit the budget
                rss_mb = harness.peak_rss_mb()
                step = time.perf_counter() - started
            if time.perf_counter() - t0 + step > budget:
                break

        traced = tracer = None
        if args.trace:
            tracer = tracing.LayerTracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                traced = workload.run_pass()
            finally:
                tracer.uninstall()
            tracer.wall_s = time.perf_counter() - t0

        checked = passes + ([traced] if traced else [])
        harness.repeat_check(checked)
        for message in workload.post_checks(checked):
            ledger.problem(message)
        for done in checked:
            ledger.add_pass(done)
        leaked = harness.leaked_plans()
        if leaked:
            raise BenchError("conv dispatch plans from calibration or a "
                             f"plan file: {leaked[:3]}")

        untraced = median([p.wall_s for p in passes])
        speed = clock.factor()
        if args.trace:
            serve = None
            if hasattr(workload, "stats"):
                latencies = [op.seconds for done in checked
                             for op in done.ops if op.ok]
                serve = {"stats": workload.stats(),
                         "client_p50_s": median(latencies)}
            time_base = workload.time_base(traced)
            metrics = tracing.layer_metrics(tracer, time_base, len(leaked),
                                            serve)
            metrics["trace.overhead_frac"] = traced.wall_s / untraced - 1.0
            for message in tracing.additivity_problems(tracer):
                ledger.problem(message)
            if metrics["core.unattributed_s"] < -1e-6 * time_base:
                ledger.problem("per-layer self times exceed the traced "
                               "time base")
            trace_dir = harness.WORK_ROOT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(
                trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            per_layer, _ = tracer.self_times()
            record["self_s"] = per_layer
            record["traced_wall_s"] = tracer.wall_s
        else:
            metrics = {
                "setup_s": median(setup_raw) * speed,
                "script_s": untraced * speed,
                "quality": median([workload.quality(p) for p in passes]),
                "peak_rss_mb": rss_mb,
            }
        record.update({
            "setup_raw_s": setup_raw,
            "pass_raw_s": [p.wall_s for p in passes],
            "reference_s": clock.samples,
            "speed_factor": speed,
            "setup_sha256": sorted(digests),
            "fills_sha256": sorted({f"{op.kind}:{op.key}:{op.sha}"
                                    for done in checked for op in done.ops
                                    if op.sha}),
            "details": workload.details(passes) + [
                f"raw seconds: set-up median {median(setup_raw):.4f}, "
                f"pass median {untraced:.4f} (n={len(passes)}); reference "
                f"kernel mean {harness.REFERENCE_NOMINAL_S / speed:.5f} s "
                f"(n={len(clock.samples)}, nominal "
                f"{harness.REFERENCE_NOMINAL_S} s): times x {speed:.4f}"],
            "problems": ledger.problems,
        })
        return metrics, ledger, record
    finally:
        if workload is not None:
            workload.close()
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        harness.prepare_environment()
        spec = _spec()
        metrics, ledger, record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for key, value in record["host"].items():
        print(f"host {key}: {value}")
    for line in record["details"]:
        print(f"detail {line}")
    for problem in ledger.problems:
        print(f"problem {problem}")
    for m in declared:
        print(f"metric {m['name']}: {metrics[m['name']]:.6g} {m['unit']} "
              f"({m['better']} is better)")
    out_dir = harness.WORK_ROOT / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": not ledger.problems and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record["result"] = result
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
