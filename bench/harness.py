"""Closed-loop measurement, span tracing and result assembly.

One client runs a workload's ops back to back: each op starts when the
previous one ends. An untraced run yields the end-to-end metrics. A
traced run wraps every call the benchmark makes into an anisotex layer
in a span and yields the per-layer metrics. Spans never nest, so per op
the span times plus ``bench.self`` add up to the op time.
"""
from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

WORKLOADS = ("tent_1024", "spec_sweep_256", "scaling_check_256", "cli_files_512")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

SPANS = (
    "synth.spectral_grid", "synth.synthesize_ensemble", "synth.variogram_oracle",
    "synth.monte_carlo_scaling_check", "homog.check_homogeneity",
    "homog.check_integrability", "besov.scan_anisotropy", "hywave.hyperbolic_transform",
    "hywave.inverse_hyperbolic_transform", "hywave.pooled_scale_statistics",
    "hywave.ratio_maximize", "cli.simulate", "cli.scan", "cli.analyze", "cli.hywave",
    "fileio.read_field",
)

# per-op work counts computed from array and file sizes; they repeat exactly
COUNTS = {
    "synth.modes_drawn": "modes/op",
    "synth.fft_bytes": "B/op_computed",
    "hywave.coefficients": "coef/op",
    "fileio.bytes_written": "B/op",
    "fileio.bytes_read": "B/op",
}

# worst value over the run's ops; 0 on workloads that do not measure them
ACCURACY = {
    "tent_argmax_err": "abs",
    "tent_peak_err": "abs",
    "tent_rms": "abs",
    "ridge_ratio_err": "abs",
    "tent_rec_err": "abs",
    "scaling_quad_err": "rel",
    "scaling_mc_err": "rel",
}

# ops outside the literal tolerance of an acceptance criterion, per run
OVER_TOL = ("tent_over_tol", "scaling_mc_over_tol")

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = "s/op"
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.errors"] = "errors/op"
    units["bench.self.s"] = "s/op"
    units["failed_frac"] = "fraction"
    units.update(COUNTS)
    units["synth.mass_key_new_frac"] = "fraction"
    units.update(ACCURACY)
    units.update(dict.fromkeys(OVER_TOL, "count"))
    units["trace.op_p50_s"] = "s"
    units["op_tail_s"] = "s"
    units["op_tail_pct"] = "%"
    units["bench.ops"] = "count"
    units["bench.workers"] = "count"
    return units


@dataclass
class OpResult:
    """What one op reports besides its wall time."""

    ok: bool
    counts: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    mass_key_new: bool = False


class NullTracer:
    """Tracing off: a span costs one method call."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Spans around the benchmark's calls into each layer, kept in memory."""

    def __init__(self):
        self.op = -1
        self.spans = []  # (op, name, start, end, raised)
        self._open = None

    @contextlib.contextmanager
    def span(self, name):
        if name not in SPANS:
            raise ValueError(f"unknown span {name!r}")
        if self._open is not None:
            raise RuntimeError(f"span {name} opened inside span {self._open}")
        self._open = name
        raised = False
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            self.spans.append((self.op, name, t0, time.perf_counter(), raised))
            self._open = None


def tail(samples, beyond=TAIL_BEYOND):
    """The highest-percentile sample with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count). The sample at sorted index
    k has n - 1 - k samples above it, so k = n - 1 - beyond. With n <= beyond
    no sample qualifies; the lowest sample, which has the most above it,
    is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(0, n - 1 - beyond)
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision(root) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(root, seed) -> dict:
    import numpy
    import scipy
    from anisotex import synth

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "worker_count": synth.worker_count(),
        "ANISOTEX_THREADS": os.environ.get("ANISOTEX_THREADS"),
        "git_revision": git_revision(root),
        "seed": seed,
    }


@dataclass
class Run:
    """Everything one closed-loop run observed."""

    op_times: list = field(default_factory=list)
    op_bounds: list = field(default_factory=list)
    results: list = field(default_factory=list)
    elapsed: float = 0.0


def run_setup(workload) -> list:
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(i)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(workload, seconds, tracer) -> Run:
    """Closed loop for ``seconds``, and at least one full input cycle."""
    run = Run()
    inputs = workload.inputs()
    start = time.perf_counter()
    while len(run.op_times) < workload.cycle or time.perf_counter() - start < seconds:
        inp = next(inputs)
        tracer.op = len(run.op_times)
        t0 = time.perf_counter()
        try:
            res = workload.run_op(inp, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = OpResult(ok=False)
        t1 = time.perf_counter()
        run.op_times.append(t1 - t0)
        run.op_bounds.append((t0, t1))
        run.results.append(res)
    run.elapsed = time.perf_counter() - start
    return run


def end_to_end(run, import_s, setup_times) -> dict:
    return {
        "op_p50_s": statistics.median(run.op_times),
        "ops_per_s": len(run.op_times) / run.elapsed,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def workload_metrics(run, cycle) -> dict:
    """Counts over the first input cycle, key novelty and worst accuracy."""
    out = {"failed_frac": sum(not r.ok for r in run.results) / len(run.results)}
    first = run.results[:cycle]
    for name in COUNTS:
        out[name] = sum(r.counts.get(name, 0) for r in first) / cycle
    out["synth.mass_key_new_frac"] = sum(r.mass_key_new for r in run.results) / len(run.results)
    for name in ACCURACY:
        out[name] = max((r.accuracy[name] for r in run.results if name in r.accuracy),
                        default=0.0)
    for name in OVER_TOL:
        out[name] = sum(r.accuracy.get(name, 0) for r in run.results)
    return out


def span_metrics(run, tracer):
    """Per-op busy time, calls and errors per span, plus bench.self.

    Returns (metrics, consistent): ``consistent`` is False when a span
    lies outside its op or the spans of an op add up to more than its time.
    """
    ops = len(run.op_times)
    busy = dict.fromkeys(SPANS, 0.0)
    calls = dict.fromkeys(SPANS, 0)
    errors = dict.fromkeys(SPANS, 0)
    per_op = [0.0] * ops
    consistent = True
    for op, name, t0, t1, raised in tracer.spans:
        lo, hi = run.op_bounds[op]
        consistent &= lo <= t0 <= t1 <= hi
        busy[name] += t1 - t0
        calls[name] += 1
        errors[name] += raised
        per_op[op] += t1 - t0
    self_s = [dt - s for dt, s in zip(run.op_times, per_op)]
    consistent &= min(self_s) >= -1e-9
    out = {}
    for name in SPANS:
        out[f"{name}.s"] = busy[name] / ops
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.errors"] = errors[name] / ops
    out["bench.self.s"] = sum(self_s) / ops
    total = sum(busy.values()) / ops + out["bench.self.s"]
    consistent &= abs(total - sum(run.op_times) / ops) <= 1e-9 * max(1.0, total)
    return out, consistent
