"""anisotex benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload tent_1024 --seed 1 --seconds 20 --trace 0

Run from any directory; the package is imported from ``src/`` of the
checkout that holds this file. The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the full detail: provenance,
set-up repeats, the tail percentile and sample count, work counts and
accuracy. A traced run also writes its spans to
``.bench_work/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every grid to 128 for the benchmark's own tests")
    return ap.parse_args(argv)


def import_package(root):
    """Import anisotex from the checkout's src/ and return the import time."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "anisotex", "__init__.py")):
        raise SystemExit(f"error: no anisotex sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import anisotex
    import anisotex.cli  # noqa: F401  (not imported by the package itself)
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(anisotex.__file__)) != os.path.join(src, "anisotex"):
        raise SystemExit(f"error: imported anisotex from {anisotex.__file__}, not {src}")
    return import_s


def write_spans(root, args, tracer):
    out = os.path.join(root, ".bench_work")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
    spans = [{"op": op, "name": name, "parent": f"op{op}", "start": t0, "end": t1,
              "raised": raised} for op, name, t0, t1, raised in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import_s = import_package(root)

    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), args.size, root)
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    try:
        setup_times = harness.run_setup(wl)
        run = harness.run_ops(wl, args.seconds, tracer)
    finally:
        wl.close()

    e2e = harness.end_to_end(run, import_s, setup_times)
    layers = harness.workload_metrics(run, wl.cycle)
    failed = sum(not r.ok for r in run.results)
    correct = failed == 0
    tail_s, tail_pct, tail_n = harness.tail(run.op_times)
    detail = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "provenance": harness.provenance(root, args.seed),
        "import_s": import_s, "setup_repeats_s": setup_times,
        "op_tail_s": tail_s, "op_tail_pct": tail_pct, "op_samples": tail_n,
        "op_times_s": run.op_times,
        "end_to_end": e2e, "workload_metrics": layers,
    }
    if args.trace:
        spans, consistent = harness.span_metrics(run, tracer)
        correct = correct and consistent
        layers.update(spans)
        layers["trace.op_p50_s"] = e2e["op_p50_s"]
        layers["op_tail_s"], layers["op_tail_pct"] = tail_s, tail_pct
        layers["bench.ops"] = len(run.op_times)
        layers["bench.workers"] = detail["provenance"]["worker_count"]
        detail["spans_consistent"] = consistent
        write_spans(root, args, tracer)
        units, values = harness.per_layer_units(), layers
    else:
        units, values = harness.END_TO_END, e2e
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(run.op_times),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
