"""Tests of the benchmark itself, at tiny grid sizes.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(harness.WORKLOADS)


def run_bench(workload, trace, seed=7, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    return {w: (parse(run_bench(w, 1)), parse(run_bench(w, 1))) for w in WORKLOADS}


@pytest.mark.parametrize("n, index", [(100, 89), (21, 10), (11, 0), (5, 0), (1, 0)])
def test_tail_picks_highest_sample_with_ten_above(n, index):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, pct, count = harness.tail(samples)
    assert value == sorted(samples)[index]
    assert count == n
    assert pct == pytest.approx(100.0 * (index + 1) / n)
    assert sum(s > value for s in samples) == min(10, n - 1)


def test_benchmark_json_declares_what_the_harness_prints(spec):
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = parse(run_bench(workload, 0))
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    prov = detail["provenance"]
    assert prov["seed"] == 7 and prov["worker_count"] >= 1 and prov["nproc"] >= 1
    assert detail["op_samples"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, traced):
    (detail, result), _ = traced[workload]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.per_layer_units()
    assert detail["spans_consistent"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["bench.self.s"] >= 0.0
    assert values["synth.mass_key_new_frac"] == (1.0 if workload == "spec_sweep_256" else 0.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_computed_counts_repeat_exactly(workload, traced):
    (_, first), (_, second) = traced[workload]
    for name in [*harness.COUNTS, "synth.mass_key_new_frac"]:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["synth.modes_drawn"]["value"] > 0


def test_spans_cover_each_layer_the_table_names(traced):
    def calls(workload, span):
        return traced[workload][0][1]["metrics"][f"{span}.calls"]["value"]

    assert calls("spec_sweep_256", "synth.spectral_grid") == 1
    assert calls("tent_1024", "synth.spectral_grid") == 0
    assert calls("tent_1024", "hywave.hyperbolic_transform") == 16
    assert calls("scaling_check_256", "synth.synthesize_ensemble") == 0
    assert calls("cli_files_512", "fileio.read_field") == 2
    for span in ("cli.simulate", "cli.scan", "cli.analyze", "cli.hywave"):
        assert calls("cli_files_512", span) > 0
        assert calls("tent_1024", span) == 0


def test_cli_read_back_check_catches_a_changed_file(tmp_path, monkeypatch):
    wl = workloads.CliFiles(np.random.default_rng(3), "tiny", str(tmp_path))
    wl.setup(harness.SETUP_REPEATS - 1)
    try:
        assert wl.run_op(None, harness.NullTracer()).ok
        read = workloads.fileio.read_field

        def corrupted(path):
            field = read(path)
            values = field.values.copy()
            values[1, 1] += 1e-12
            return type(field)(values=values, spec=field.spec)

        monkeypatch.setattr(workloads.fileio, "read_field", corrupted)
        assert not wl.run_op(None, harness.NullTracer()).ok
    finally:
        wl.close()


def test_tent_check_catches_a_broken_inverse(monkeypatch):
    wl = workloads.Tent(np.random.default_rng(3), "tiny", ROOT)
    seed = next(wl.inputs())
    assert wl.run_op(seed, harness.NullTracer()).accuracy["tent_rec_err"] < 1e-9
    monkeypatch.setattr(workloads.hywave, "inverse_hyperbolic_transform",
                        lambda pyr: np.zeros((pyr.grid_n, pyr.grid_n)))
    res = wl.run_op(seed, harness.NullTracer())
    assert res.accuracy["tent_rec_err"] > 1e-9
    assert not res.ok


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("tent_1024", 0, cwd=tmp_path, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
