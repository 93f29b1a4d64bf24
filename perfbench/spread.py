"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload cold-check --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs are sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        command = list(config["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: exit {completed.returncode} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            file=sys.stderr,
        )
        runs.append(result)

    print(f"{'metric':<32} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / middle if middle else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:<32} {middle:>12.4f} {spread:>11.4f} {bound if bound is not None else '-':>6}{flag}")
        print("    " + " ".join(f"{value:.4g}" for value in values), file=sys.stderr)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
