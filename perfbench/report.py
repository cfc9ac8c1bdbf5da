#!/usr/bin/env python3
"""Run every workload and print each end-to-end metric by name and unit.

    python3 perfbench/report.py                          # one run per workload
    python3 perfbench/report.py --seeds 1-10 --seconds 25  # spread over seeds

With more than one seed, each metric is printed as its median and the
distance between its first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), the figure the benchmark's
bounds in BENCHMARK.json are compared against.  The exit code is 1 when
any run is incorrect, that is, has a failed operation that is not a
known defect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None or proc.returncode != (0 if result["correct"] else 1):
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record = json.loads(Path(".perfbench-out", f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for name in ("fail_ratio", "value_max_abs_err"):
        if name in record:
            result["metrics"][name] = {"value": record[name], "unit": "1"}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    all_correct = True
    for workload in names:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        all_correct &= all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {attempted} operations, {failed} failed, "
              f"correct={all(r['correct'] for r in runs)}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {metric:36} {median:14.6g} {first['unit']}"
            if len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"   spread {(q3 - q1) / median if median else float('nan'):.4f}"
            print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
