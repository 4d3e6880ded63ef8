import json
import math
import struct

import numpy as np
import pytest

from anisotex import FieldSpec, SampledField, besov, ensemble, fileio, homog, synth
from anisotex.cli import _parse_p, main


class TestSimulate:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "field.anif"
        rc = main(["simulate", "--alpha0", "0.6", "--hurst", "0.4",
                   "--size", "128", "--seed", "7", "--out", str(out)])
        assert rc == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == {"alpha0": 0.6, "hurst": 0.4, "rho": "power_sum",
                          "grid_n": 128, "seed": 7}
        f = fileio.read_field(out)
        assert f.spec.grid_n == 128
        assert f.values[0, 0] == 0.0

    def test_inadmissible_hurst_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--alpha0", "0.6", "--hurst", "0.7",
                   "--out", str(tmp_path / "x.anif")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "min(0.6, 1.4)" in err and "0.6" in err

    @pytest.mark.parametrize("alpha0", ["0.1", "1.9", "0.01", "1.99", "nan"])
    def test_extreme_alpha0_no_warning(self, alpha0, tmp_path, capsys):
        # the ends of the field domain run, and specs beyond them (or NaN)
        # are refused with exit 2 before any work; RuntimeWarnings are errors
        # under the test settings, so a warning would exit 1
        rc = main(["simulate", "--alpha0", alpha0, "--hurst", "0.005", "--size", "256",
                   "--out", str(tmp_path / "x.anif")])
        err = capsys.readouterr().err
        if alpha0 in ("0.01", "1.99", "nan"):
            assert rc == 2 and err.startswith(f"error: alpha0 = {alpha0} is beyond the floor")
        else:
            assert rc == 0 and err == ""

    def test_byte_identical_repeat(self, tmp_path):
        a, b = tmp_path / "a.anif", tmp_path / "b.anif"
        args = ["simulate", "--alpha0", "0.6", "--hurst", "0.4",
                "--size", "64", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", str(2 ** 16)],
    ["scan", "--spec", f"alpha0=0.6,hurst=0.4,n={2 ** 16}"],
], ids=["simulate_size", "scan_n"])
def test_oversized_synthesis_exit_2(argv, monkeypatch, tmp_path, capsys):
    # rejected before any allocation: building the mass grid fails the test
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "GiB, over the 4 GiB limit" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha0", "1e-06", "--hurst", "5e-07", "--size", "64"],
    ["scan", "--spec", "alpha0=0.05,hurst=0.01,n=64", "--reps", "2"],
    ["scan", "--spec", "alpha0=1.95,hurst=0.01,n=64", "--reps", "2"],
    ["scan", "--in", "{below}"],
], ids=["simulate_1e-6", "scan_0.05", "scan_1.95", "scan_in"])
def test_below_floor_exit_2(argv, monkeypatch, tmp_path, capsys):
    # refused before any mass grid is built (1e-6 ran for minutes before the
    # floor); the file's header spec is below it
    below = tmp_path / "below.anif"
    spec = json.dumps({"alpha0": 0.05, "hurst": 0.01, "grid_n": 64}).encode()
    below.write_bytes(b"ANIF" + struct.pack("<III", 1, 64, len(spec)) + spec + bytes(8 * 64 * 64))
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    rc = main([a.format(below=below) for a in argv] + ["--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha0 = " in err and "floor" in err and "Traceback" not in err


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_streamed_scan_budgets_fields_per_worker(workers, monkeypatch, tmp_path, capsys):
    # a streamed scan holds at most one field per worker, so 128 realizations
    # at n = 2048 fit (the guard counted 8 B per sample for every one: 4.2 GiB);
    # the reduction is stubbed, so nothing is synthesized
    monkeypatch.setattr(synth, "worker_count", lambda: workers)
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))

    def reduce_synthesis(spec, reps, alpha_grid, p):
        assert (spec.grid_n, reps) == (2048, 128)
        return ensemble.EnsembleReduction(exponents=((0.6, 0.3),),
                                          scan=besov.scan_exponents([(0.6, 0.3)], alpha_grid))

    monkeypatch.setattr(ensemble, "reduce_synthesis", reduce_synthesis)
    rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=2048", "--reps", "128",
               "--out", str(tmp_path / "x")])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_streamed_scan_reps_refused_before_specs(monkeypatch, tmp_path, capsys):
    # the per-realization cost still bounds --reps: refused before
    # ensemble_specs builds its list of 10^7 specs
    monkeypatch.setattr(synth, "ensemble_specs", lambda *a: pytest.fail("specs built"))
    rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=128", "--reps", str(10 ** 7),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "GiB, over the 4 GiB limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--in", "{d}"],
    ["analyze", "--in", "{d}"],
    ["hywave", "--in", "{d}"],
    ["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "64"],
], ids=["scan_in", "analyze_in", "hywave_in", "simulate_out"])
def test_directory_path_exit_2(argv, tmp_path, capsys):
    # an OS error on an input or output path is a usage error, not an
    # internal one (IsADirectoryError used to exit 1)
    d = tmp_path / "dir"
    d.mkdir()
    argv = [a.format(d=d) for a in argv]
    out = str(d) if argv[0] == "simulate" else str(tmp_path / "x")
    rc = main(argv + ["--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert not list(tmp_path.rglob(".anisotex-*.tmp"))


class TestScan:
    def test_in_memory_spec(self, tmp_path, capsys):
        out = tmp_path / "scan"
        rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=128,seed=5",
                   "--reps", "2", "--p", "2", "--alpha-grid", "0.4:1.6:0.2",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"argmax_alpha", "peak", "tent_rms"} <= set(summary)
        scan = fileio.read_scan(str(out) + ".csv")
        assert scan.alphas[0] == pytest.approx(0.4)
        assert scan.alphas[-1] == pytest.approx(1.6)  # stop included

    @pytest.mark.parametrize("grid,message", [("0:1:1e-8", "more than 10000 points"),
                                              ("0:inf:0.1", "must be finite")])
    def test_oversized_grid_exit_2(self, grid, message, monkeypatch, tmp_path, capsys):
        # rejected before any allocation (0:1:1e-8 used to build 10^8 points)
        monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
        rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=128", "--alpha-grid", grid,
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=128", "--reps", "1",
                   "--alpha-grid", "0.5:0.5:0.1", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "empty grid" in capsys.readouterr().err

    def test_field_file_inputs(self, tmp_path, capsys):
        f1, f2 = tmp_path / "1.anif", tmp_path / "2.anif"
        for path, seed in ((f1, "1"), (f2, "2")):
            main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
                  "--seed", seed, "--out", str(path)])
        capsys.readouterr()
        rc = main(["scan", "--in", str(f1), "--in", str(f2),
                   "--alpha-grid", "0.5:1.5:0.25", "--out", str(tmp_path / "s")])
        assert rc == 0

    def test_mixed_specs_rejected(self, tmp_path, capsys):
        f1, f2 = tmp_path / "1.anif", tmp_path / "2.anif"
        main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
              "--seed", "1", "--out", str(f1)])
        main(["simulate", "--alpha0", "1.0", "--hurst", "0.5", "--size", "128",
              "--seed", "1", "--out", str(f2)])
        capsys.readouterr()
        rc = main(["scan", "--in", str(f1), "--in", str(f2),
                   "--alpha-grid", "0.5:1.5:0.25", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "mixed-spec" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["mixed_third", "truncated_last"])
    def test_inputs_checked_before_any_payload(self, bad, tmp_path, monkeypatch, capsys):
        # every header, size and spec is checked first: a bad later file
        # exits 2 before any payload is read and writes no output
        paths = []
        for i, (alpha0, hurst) in enumerate([(0.6, 0.4)] * 2 + [
                (1.0, 0.5) if bad == "mixed_third" else (0.6, 0.4)] + [(0.6, 0.4)]):
            path = tmp_path / f"{i}.anif"
            fileio.write_field(path, synth.synthesize(FieldSpec.make(alpha0, hurst, grid_n=128,
                                                                     seed=i)))
            paths.append(path)
        if bad == "truncated_last":
            paths[-1].write_bytes(paths[-1].read_bytes()[:-8])
        monkeypatch.setattr(fileio, "read_field", lambda p: pytest.fail("payload read"))
        monkeypatch.setattr(besov, "axis_exponents", lambda *a: pytest.fail("exponents computed"))
        rc = main(["scan", *[a for p in paths for a in ("--in", str(p))],
                   "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 2
        if bad == "mixed_third":
            assert f"mixed-spec inputs: {paths[2]} disagrees with {paths[0]}" in err
        else:
            assert f"{paths[3]}: truncated or oversized" in err
        assert not list(tmp_path.glob("s*"))

    def test_streamed_files_match_batch_scan(self, tmp_path, capsys):
        # scan --in reduces each file on the pool; its CSV is byte-identical
        # to the table of the batch scan of the loaded ensemble, and its
        # summary carries the same numbers
        paths = []
        for seed in range(8):
            path = tmp_path / f"{seed}.anif"
            main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
                  "--seed", str(40 + seed), "--out", str(path)])
            paths.append(path)
        capsys.readouterr()
        out = tmp_path / "s"
        rc = main(["scan", *[a for p in paths for a in ("--in", str(p))], "--out", str(out)])
        assert rc == 0
        fields = [fileio.read_field(p) for p in paths]
        grid = [round(0.2 + 0.05 * i, 10) for i in range(33)]
        batch = besov.scan_anisotropy(fields, grid, 2.0)
        fileio.write_scan(tmp_path / "batch.csv", batch)
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "batch.csv").read_bytes()
        summary = json.loads((tmp_path / "s.json").read_text())
        assert (summary["argmax_alpha"], summary["peak"]) == (batch.argmax_alpha, batch.peak)
        assert summary["realizations"] == 8

    def test_overflowing_order_from_pool_exit_2(self, tmp_path, capsys):
        # the order p overflows in a pool worker; the run still exits 2 naming p
        rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=128,seed=3", "--reps", "3",
                   "--p", "1000", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: order p=1000.0") and "overflows float64" in err
        assert not list(tmp_path.glob("s*"))

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["scan", "--in", str(tmp_path / "nope.anif"),
                   "--alpha-grid", "0.5:1.5:0.25", "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_flagship_scan_example(self, tmp_path, capsys):
        # the headline experiment end to end through the CLI
        out = tmp_path / "scan"
        rc = main(["scan", "--spec", "alpha0=0.6,hurst=0.4,n=1024,seed=20260101",
                   "--reps", "16", "--p", "2", "--alpha-grid", "0.2:1.8:0.05",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.5 <= summary["argmax_alpha"] <= 0.7
        assert 0.35 <= summary["peak"] <= 0.45
        assert summary["tent_rms"] <= 0.07


@pytest.mark.parametrize("text,p", [("2", 2.0), ("inf", math.inf), ("Infinity", math.inf)])
def test_parse_p(text, p):
    assert _parse_p(text) == p


@pytest.mark.parametrize("text", ["0.5", "nan", "-1"])
def test_parse_p_rejects_illegal_order(text, capsys):
    with pytest.raises(ValueError, match="order p must be >= 1 or inf"):
        _parse_p(text)
    # argparse turns the ValueError into a usage error before any file is read
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--in", "missing.anif", "--p", text, "--out", "x"])
    assert exc.value.code == 2
    assert "invalid _parse_p value" in capsys.readouterr().err


class TestAnalyze:
    def test_exponent_output(self, tmp_path, capsys):
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "256",
              "--seed", "9", "--out", str(f)])
        capsys.readouterr()
        out = tmp_path / "an"
        rc = main(["analyze", "--in", str(f), "--p", "2", "--out", str(out)])
        assert rc == 0
        res = json.loads((tmp_path / "an.json").read_text())
        assert set(res) == {"1,0", "0,1"}
        assert 0.3 < res["1,0"]["h"] < 1.0
        sfs = fileio.read_structure_functions(str(out) + ".csv")
        assert len(sfs) == 2

    def test_sup_norm_order(self, tmp_path, capsys):
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "256",
              "--seed", "2", "--out", str(f)])
        capsys.readouterr()
        rc = main(["analyze", "--in", str(f), "--p", "inf", "--out", str(tmp_path / "an")])
        assert rc == 0
        res = json.loads((tmp_path / "an.json").read_text())
        assert "h" in res["1,0"]

    def test_degenerate_direction_warns_but_exits_zero(self, tmp_path, capsys):
        spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=0)
        const = SampledField(values=np.zeros((128, 128)), spec=spec)
        f = tmp_path / "const.anif"
        fileio.write_field(f, const)
        rc = main(["analyze", "--in", str(f), "--out", str(tmp_path / "an")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" in captured.err
        res = json.loads((tmp_path / "an.json").read_text())
        assert "error" in res["1,0"]


    def test_non_finite_direction_exit_2(self, tmp_path, capsys):
        # nan used to snap to (8, 7) and fail with "need at least 4 lags"
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
              "--seed", "9", "--out", str(f)])
        capsys.readouterr()
        rc = main(["analyze", "--in", str(f), "--direction", "nan,1",
                   "--out", str(tmp_path / "an")])
        assert rc == 2
        assert "direction (nan, 1.0) must have finite components" in capsys.readouterr().err

    def test_consecutive_calls_see_own_lists(self, tmp_path, capsys):
        # main parses with one parser per process: the append lists of --in
        # and --direction start empty in every call, so nothing leaks from
        # one call into the next
        paths = []
        for seed in (1, 2, 3):
            paths.append(str(tmp_path / f"{seed}.anif"))
            main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
                  "--seed", str(seed), "--out", paths[-1]])
        grid = ["--alpha-grid", "0.5:1.5:0.25"]
        assert main(["scan", "--in", paths[0], "--in", paths[1], *grid,
                     "--out", str(tmp_path / "s1")]) == 0
        assert main(["scan", "--in", paths[2], *grid, "--out", str(tmp_path / "s2")]) == 0
        assert json.loads((tmp_path / "s1.json").read_text())["realizations"] == 2
        assert json.loads((tmp_path / "s2.json").read_text())["realizations"] == 1
        assert main(["analyze", "--in", paths[0], "--direction", "1,0",
                     "--out", str(tmp_path / "a1")]) == 0
        assert main(["analyze", "--in", paths[1], "--direction", "0,1", "--direction", "1,1",
                     "--out", str(tmp_path / "a2")]) == 0
        assert set(json.loads((tmp_path / "a1.json").read_text())) == {"1,0"}
        assert set(json.loads((tmp_path / "a2.json").read_text())) == {"0,1", "1,1"}
        assert main(["analyze", "--in", paths[2], "--out", str(tmp_path / "a3")]) == 0
        assert set(json.loads((tmp_path / "a3.json").read_text())) == {"1,0", "0,1"}

    def test_table_round_trip(self, tmp_path, capsys):
        # the CSV carries grid_n, so a read-back table fits to the JSON exponents
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "128",
              "--seed", "9", "--out", str(f)])
        out = tmp_path / "an"
        assert main(["analyze", "--in", str(f), "--out", str(out)]) == 0
        res = json.loads((tmp_path / "an.json").read_text())
        for sf in fileio.read_structure_functions(str(out) + ".csv"):
            key = f"{sf.lattice_step[0]},{sf.lattice_step[1]}"
            assert besov.directional_exponent(sf).h == pytest.approx(res[key]["h"], rel=1e-12)


@pytest.mark.parametrize("spec,key", [
    ("alpha0=0.6,hurst=0.4,alpha0=1.0", "'alpha0'"),
    ("alpha0=0.6,hurst=0.4,seed=1, seed =2", "'seed'"),
], ids=["repeated_alpha0", "repeated_seed"])
def test_conflicting_spec_keys_exit_2(spec, key, monkeypatch, tmp_path, capsys):
    # rejected while parsing, before any synthesis
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    rc = main(["scan", "--spec", spec, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["scan"], "provide field files with --in or a --spec with --reps"),
    (["scan", "--spec", "alpha0=0.6,hurst=0.4,k=1"], "unknown keys in --spec: ['k']"),
    (["scan", "--spec", "alpha0=0.6,hurst=0.4,n=256,grid_n=512"], "unknown keys in --spec: ['grid_n']"),
    (["scan", "--spec", "alpha0=0.6,hurst=0.4", "--reps", "0"], "reps must be >= 1"),
    (["analyze", "--in", "a.anif", "--in", "b.anif"], "analyze expects exactly one --in field file"),
], ids=["scan_no_input", "scan_unknown_key", "scan_grid_n_is_unknown_key", "scan_zero_reps",
        "analyze_two_inputs"])
def test_usage_errors_exit_2(argv, message, monkeypatch, tmp_path, capsys):
    # refused before any synthesis or file read
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    monkeypatch.setattr(fileio, "read_field", lambda *a: pytest.fail("file read"))
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_failure_exit_1(monkeypatch, tmp_path, capsys):
    # an error other than a usage, domain or OS error is an internal one
    def fail(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(synth, "synthesize", fail)
    rc = main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "64",
               "--out", str(tmp_path / "x.anif")])
    assert rc == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.fixture
def field_64(tmp_path):
    path = tmp_path / "f64.anif"
    fileio.write_field(path, synth.synthesize(FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)))
    return path


@pytest.mark.parametrize("argv", [
    ["scan", "--spec", "alpha0=0.6,hurst=0.4,n=64", "--reps", "2"],
    ["scan", "--in", "{f64}"],
    ["analyze", "--in", "{f64}"],
], ids=["scan_spec", "scan_in", "analyze"])
def test_grid_too_small_exit_2(argv, field_64, monkeypatch, tmp_path, capsys):
    # n = 64 leaves 3 axis lags in the fit window; rejected before synthesis
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    argv = [a.format(f64=field_64) for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"the minimum grid is n={besov.min_fit_grid()}" in err
    assert besov.min_fit_grid() == 128


@pytest.fixture
def scaled_128(tmp_path):
    """A valid 128^2 ANIF file whose values are scaled by 1e200."""
    f = synth.synthesize(FieldSpec.make(0.6, 0.4, grid_n=128, seed=5))
    path = tmp_path / "scaled.anif"
    fileio.write_field(path, SampledField(values=f.values * 1e200, spec=f.spec))
    return path


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "{f256}", "--p", "400"],
    ["scan", "--in", "{f256}", "--p", "400"],
    ["analyze", "--in", "{scaled}"],
    ["scan", "--in", "{scaled}"],
    ["hywave", "--in", "{scaled}"],
], ids=["analyze_p400", "scan_p400", "analyze_scaled", "scan_scaled", "hywave_scaled"])
def test_overflowing_moment_exit_2(argv, scaled_128, tmp_path, capsys):
    # analyze wrote "h": NaN with exit 0, scan hit an IndexError on the NaN
    # peak (exit 1) and hywave reported "no usable rays"
    f256 = tmp_path / "f256.anif"
    main(["simulate", "--alpha0", "0.6", "--hurst", "0.4", "--size", "256",
          "--seed", "9", "--out", str(f256)])
    capsys.readouterr()
    argv = [a.format(f256=f256, scaled=scaled_128) for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2, err
    p = "400.0" if "400" in argv else "2.0"
    assert err.startswith("error: order p=" + p) and "overflows float64" in err
    assert not list(tmp_path.glob("x*.json"))


class TestHywave:
    def test_summary(self, tmp_path, capsys):
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "1.0", "--hurst", "0.5", "--size", "256",
              "--seed", "4", "--out", str(f)])
        capsys.readouterr()
        rc = main(["hywave", "--in", str(f), "--filter", "d4", "--p", "2",
                   "--out", str(tmp_path / "hw")])
        assert rc == 0
        summary = json.loads((tmp_path / "hw.json").read_text())
        assert summary["implied_alpha0"] == pytest.approx(
            2 * summary["best_ratio"] / (1 + summary["best_ratio"]))
        assert (tmp_path / "hw_stats.csv").exists()
        assert (tmp_path / "hw_ratio.csv").exists()

    def test_infeasible_levels_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.anif"
        main(["simulate", "--alpha0", "1.0", "--hurst", "0.5", "--size", "64",
              "--seed", "4", "--out", str(f)])
        capsys.readouterr()
        rc = main(["hywave", "--in", str(f), "--levels", "9",
                   "--out", str(tmp_path / "hw")])
        assert rc == 2

    def test_spec_without_rho_exit_0(self, tmp_path, capsys):
        # the spec's rho key is optional, so files written without it still read
        f = synth.synthesize(FieldSpec.make(1.0, 0.5, grid_n=64, seed=4))
        spec = json.dumps({"alpha0": 1.0, "hurst": 0.5, "grid_n": 64, "seed": 4}).encode()
        path = tmp_path / "old.anif"
        path.write_bytes(b"ANIF" + struct.pack("<III", 1, 64, len(spec)) + spec
                         + f.values.astype("<f8").tobytes())
        rc = main(["hywave", "--in", str(path), "--out", str(tmp_path / "hw")])
        assert rc == 0, capsys.readouterr().err

    def test_malformed_file_exit_2(self, malformed_anif, tmp_path, capsys):
        path, message = malformed_anif
        rc = main(["hywave", "--in", str(path), "--out", str(tmp_path / "hw")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestSelftest:
    def test_quick_passes(self, capsys):
        rc = main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS homogeneity" in out
        assert "PASS determinism" in out
        assert "PASS zero_at_origin" in out
        assert "PASS reconstruction" in out
        assert "PASS scaling_identity" in out
        assert "PASS admissibility" in out
        assert "FAIL" not in out

    def test_full_selftest_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS tent_argmax" in out
        assert "PASS tent_peak" in out

    def test_broken_scaling_negative_control(self, monkeypatch, capsys):
        # an oracle that is not operator self-similar must fail the identity
        monkeypatch.setattr(synth, "variogram_oracle", lambda spec, x: float(np.sum(np.abs(x))))
        rc = main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL scaling_identity" in out

    def test_broken_admissibility_negative_control(self, monkeypatch, capsys):
        # a check that calls every spec finite must fail at hurst = 0.7 > 0.6
        monkeypatch.setattr(homog, "check_integrability",
                            lambda rho, hurst: homog.IntegrabilityReport(1.0, 0.5, 0.5))
        rc = main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL admissibility" in out

    def test_broken_determinism_negative_control(self, monkeypatch, capsys):
        # the second synthesis draws another seed, so the check must fail
        calls = []
        synthesize = synth.synthesize

        def shifted(spec):
            calls.append(spec)
            return synthesize(spec.with_seed(spec.seed + 1) if len(calls) == 2 else spec)

        monkeypatch.setattr(synth, "synthesize", shifted)
        rc = main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL determinism" in out
