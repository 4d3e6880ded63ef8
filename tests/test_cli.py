import json
import math

import numpy as np
import pytest

from anisotex import FieldSpec, SampledField, besov, fileio, synth
from anisotex.cli import main


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
    ["scan", "--spec", "alpha0=0.6,hurst=0.4,n=2048", "--reps", "100000"],
], ids=["simulate_size", "scan_n", "scan_reps"])
def test_oversized_synthesis_exit_2(argv, monkeypatch, tmp_path, capsys):
    # rejected before any allocation: building the mass grid fails the test
    monkeypatch.setattr(synth, "_folded_mass", lambda *a: pytest.fail("mass grid built"))
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "GiB, over the 4 GiB limit" in err


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
        monkeypatch.setattr(synth, "_folded_mass", lambda *a: pytest.fail("mass grid built"))
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
    monkeypatch.setattr(synth, "_folded_mass", lambda *a: pytest.fail("mass grid built"))
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
        assert "FAIL" not in out

    def test_full_selftest_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS tent_argmax" in out
        assert "PASS tent_peak" in out

    def test_broken_determinism_negative_control(self, capsys):
        rc = main(["selftest", "--quick", "--debug-break-determinism"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL determinism" in out
