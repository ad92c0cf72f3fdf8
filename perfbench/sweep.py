"""Run every workload for several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1,2,3,4,5,6,7,8,9,10

Each run is one ``perfbench/run.py`` process with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``.  For every workload and
end-to-end metric this prints the median and the distance between the
first and third quartile as a share of the median (``statistics.
quantiles(values, n=4)``), next to the metric's bound, and writes all
values to ``.perfbench/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench-sweep")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    values: dict[str, dict[str, list[float]]] = {}
    failures = 0
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", flush=True)
                continue
            result = json.loads(lines[-1])
            failures += 0 if result["correct"] else 1
            for name, entry in result["metrics"].items():
                per_metric.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
    for workload, per_metric in values.items():
        for metric in spec["end_to_end"]:
            series = per_metric.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            print(f"{workload:10s} {metric['name']:12s} median {mid:10.4g} "
                  f"{metric['unit']:6s} spread {(q3 - q1) / mid:6.3f} "
                  f"(bound {metric['bound']})")
    out = ROOT / ".perfbench" / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "values": values}, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
