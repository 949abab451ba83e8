#!/usr/bin/env python3
"""Runs the benchmark once per seed, one run at a time, and summarises each
metric of the last stdout line as median, quartiles and spread (quartile
distance over the median, the figure a metric's bound is compared with).

    python3 perfbench/repeat.py --workload train --seeds 1-10 --seconds 15
    python3 perfbench/repeat.py --workload all --seeds 1-10 --trace 1 --out s.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "baseline", "evaluate", "attack")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args()
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        summary[workload] = {
            "runs": len(runs), "seconds": seconds,
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": summarise(runs)}
        print(f"{workload}: {len(runs)} runs, correct={summary[workload]['correct']}")
        for name, m in summary[workload]["metrics"].items():
            print(f"  {name:40s} {m['median']:14.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
