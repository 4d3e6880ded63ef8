"""Tracing overhead per workload: traced against untraced median op time.

    python3 bench/overhead.py --seconds 25 --seed 1 --seed 2 --seed 3 [--workload NAME ...]

For each workload and seed, runs bench/run.py once untraced and once
traced, alternating which goes first, and prints one JSON line per
workload: the median over seeds of each side's op_p50_s and the
overhead, traced over untraced minus one.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness


def median_op_time(workload, seed, seconds, trace):
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return metrics["trace.op_p50_s" if trace else "op_p50_s"]["value"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workload", action="append", choices=harness.WORKLOADS)
    args = ap.parse_args(argv)
    for workload in args.workload or harness.WORKLOADS:
        times = {0: [], 1: []}
        for i, seed in enumerate(args.seed):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[trace].append(median_op_time(workload, seed, args.seconds, trace))
        untraced, traced = statistics.median(times[0]), statistics.median(times[1])
        print(json.dumps({"workload": workload, "seeds": args.seed,
                          "untraced_op_p50_s": times[0], "traced_op_p50_s": times[1],
                          "overhead_frac": traced / untraced - 1.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
