"""The checker's benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-check --seed 1 --seconds 20 --trace 0

Workloads: ``cold-check``, ``batch-corpus``, ``serve-mixed``,
``fuzz-crosscheck`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run measures the program as shipped and reports the end-to-end metrics; with
``--trace 1`` it also times each layer from the outside (``layers.py``) and
reports the per-layer metrics.  Every verdict is checked against its known
answer.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 154, "failed": 0, "metrics": {...}}

A human-readable summary goes to standard error.  The exit code is 0 only
when every verdict and gate held.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Scratch space for verdict caches and daemon logs; removed after each run.
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cold-check", "batch-corpus", "serve-mixed", "fuzz-crosscheck")
#: ``setup_s`` is the median of this many set-ups: this run's own and
#: fresh-interpreter repeats run after the measurement.
SETUPS = 3


def _make(name: str, seed: int):
    import serve
    import workloads

    if name == "cold-check":
        return workloads.ColdCheck(seed)
    if name == "batch-corpus":
        return workloads.BatchCorpus(seed, SCRATCH)
    if name == "serve-mixed":
        return serve.ServeMixed(seed, SCRATCH)
    return workloads.FuzzCrosscheck(seed)


def _repeat_setup(args) -> float:
    """Time the workload's set-up again in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def _report(args, outcome, metrics) -> None:
    from common import END_TO_END, PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.4f} {unit}", file=sys.stderr)
    for note in outcome.notes:
        print(f"  note: {note}", file=sys.stderr)
    if outcome.raw and not args.trace:
        print(f"  raw: {json.dumps(outcome.raw, sort_keys=True)}", file=sys.stderr)
    if outcome.exact_counts:
        print(f"  exact counts: {json.dumps(outcome.exact_counts, sort_keys=True)}", file=sys.stderr)
    for message in outcome.wrong:
        print(f"  WRONG: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no repro sources under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)

    workload = _make(args.workload, args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        from common import REFERENCE_SPIN_MS, spin_ms

        # Scaled to the reference speed like every end-to-end time (common.Speed).
        setup_s *= REFERENCE_SPIN_MS / spin_ms()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcome = workload.run(args.seconds, bool(args.trace))
    finally:
        workload.close()
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    from common import END_TO_END, PER_LAYER, median

    metrics = dict(outcome.metrics)
    if args.trace:
        # A layer the workload never calls reads 0.
        metrics = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
        names = PER_LAYER
    else:
        names = END_TO_END
        metrics["setup_s"] = median([setup_s] + [_repeat_setup(args) for _ in range(SETUPS - 1)])
        metrics["ok_ratio"] = 1.0 - outcome.failed / max(1, outcome.attempted)
        metrics = {name: float(metrics[name]) for name in END_TO_END}
    _report(args, outcome, metrics)
    correct = not outcome.wrong and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
