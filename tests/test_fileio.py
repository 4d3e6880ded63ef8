import json
import math
import re
import struct

import numpy as np
import pytest

from anisotex import (
    FieldSpec,
    directional_exponent,
    hyperbolic_transform,
    pooled_scale_statistics,
    ratio_maximize,
    scan_anisotropy,
    structure_function,
    synthesize,
    synthesize_ensemble,
)
from anisotex import besov, fileio


@pytest.fixture
def field():
    return synthesize(FieldSpec.make(0.6, 0.4, grid_n=64, seed=12345))


class TestAnif:
    def test_round_trip_bit_exact(self, field, tmp_path):
        path = tmp_path / "f.anif"
        fileio.write_field(path, field)
        back = fileio.read_field(path)
        assert np.array_equal(back.values, field.values)
        assert back.spec == field.spec

    def test_layout(self, field, tmp_path):
        path = tmp_path / "f.anif"
        fileio.write_field(path, field)
        raw = path.read_bytes()
        assert raw[:4] == b"ANIF"
        version = int.from_bytes(raw[4:8], "little")
        n = int.from_bytes(raw[8:12], "little")
        jlen = int.from_bytes(raw[12:16], "little")
        assert (version, n) == (1, 64)
        assert len(raw) == 16 + jlen + 8 * n * n

    def test_header_spec_bytes(self, field, tmp_path):
        path = tmp_path / "f.anif"
        fileio.write_field(path, field)
        raw = path.read_bytes()
        jlen = int.from_bytes(raw[12:16], "little")
        assert raw[16:16 + jlen] == (b'{"alpha0": 0.6, "hurst": 0.4, "rho": "power_sum", '
                                     b'"grid_n": 64, "seed": 12345}')

    def test_spec_without_rho_or_seed_reads(self, field, tmp_path):
        spec = json.dumps({"alpha0": 0.6, "hurst": 0.4, "grid_n": 64}).encode()
        path = tmp_path / "old.anif"
        path.write_bytes(b"ANIF" + struct.pack("<III", 1, 64, len(spec)) + spec
                         + field.values.astype("<f8").tobytes())
        back = fileio.read_field(path)
        assert back.spec == field.spec.with_seed(0)
        assert np.array_equal(back.values, field.values)

    def test_integral_float_grid_n_and_seed_read(self):
        spec = fileio.spec_from_dict({"alpha0": 0.6, "hurst": 0.4, "grid_n": 64.0, "seed": 3.0})
        assert (spec.grid_n, spec.seed) == (64, 3)

    def test_large_seed_round_trip(self, tmp_path):
        f = synthesize(FieldSpec.make(1.0, 0.5, grid_n=64, seed=2 ** 63 + 5))
        path = tmp_path / "f.anif"
        fileio.write_field(path, f)
        assert fileio.read_field(path).spec.seed == 2 ** 63 + 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.anif"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError, match="magic"):
            fileio.read_field(path)

    def test_truncated_payload(self, field, tmp_path):
        path = tmp_path / "f.anif"
        fileio.write_field(path, field)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            fileio.read_field(path)

    def test_truncated_payload_read(self, field, tmp_path, monkeypatch):
        # a file cut short after its size was checked: the payload read into
        # the sample array comes up short and names the bytes it got
        path = tmp_path / "f.anif"
        fileio.write_field(path, field)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-16])
        stat = fileio.os.fstat
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: type("S", (), {"st_size": size})())
        with pytest.raises(ValueError, match=r"truncated sample payload \(32752 of 32768 bytes\)"):
            fileio.read_field(path)
        monkeypatch.setattr(fileio.os, "fstat", stat)
        with pytest.raises(ValueError, match="truncated or oversized"):
            fileio.read_spec(path)

    def test_bytes_match_whole_payload_copy(self, tmp_path):
        # the file holds the header and the samples' little-endian bytes,
        # exactly as when the payload was written through tobytes()
        f = synthesize(FieldSpec.make(1.4, 0.5, grid_n=128, seed=8))
        path = tmp_path / "f.anif"
        fileio.write_field(path, f)
        spec = json.dumps(fileio.spec_to_dict(f.spec)).encode()
        assert path.read_bytes() == (b"ANIF" + struct.pack("<III", 1, 128, len(spec)) + spec
                                     + f.values.astype("<f8").tobytes())
        back = fileio.read_field(path)
        assert np.array_equal(back.values, f.values)
        assert back.values.dtype == np.float64 and not back.values.flags.writeable
        assert fileio.read_spec(path) == f.spec

    def test_spec_invalid_utf8(self, field, tmp_path):
        # the spec bytes are decoded inside the check, so the error names the file
        path = tmp_path / "f.anif"
        path.write_bytes(b"ANIF" + struct.pack("<III", 1, 64, 1) + b"\xff"
                         + field.values.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad spec: .*codec"):
            fileio.read_field(path)

    def test_malformed_header(self, malformed_anif):
        path, message = malformed_anif
        with pytest.raises(ValueError, match=message):
            fileio.read_field(path)
        with pytest.raises(ValueError, match=message):
            fileio.read_spec(path)


class TestCsvRoundTrips:
    def test_structure_functions(self, field, tmp_path):
        sfs = [structure_function(field, (1, 0), 2.0),
               structure_function(field, (0, 1), math.inf)]
        path = tmp_path / "sf.csv"
        fileio.write_structure_functions(path, sfs)
        text = path.read_text()
        assert text.splitlines()[0] == "direction_u,direction_v,p,t,S,grid_n"
        assert "\r" not in text
        back = fileio.read_structure_functions(path)
        by_key = {(sf.lattice_step, sf.p): sf for sf in back}
        for sf in sfs:
            got = by_key[(sf.lattice_step, sf.p)]
            assert got.lags == pytest.approx(sf.lags)
            assert got.values == pytest.approx(sf.values)
            assert got.grid_n == sf.grid_n == 64

    def test_structure_functions_fit_after_read_back(self, tmp_path):
        # the table carries grid_n, so the default fit window applies to it
        f = synthesize(FieldSpec.make(0.6, 0.4, grid_n=128, seed=4))
        sfs = [structure_function(f, (1, 0), 2.0), structure_function(f, (0, 1), 2.0)]
        path = tmp_path / "sf.csv"
        fileio.write_structure_functions(path, sfs)
        back = {sf.lattice_step: sf for sf in fileio.read_structure_functions(path)}
        for sf in sfs:
            assert directional_exponent(back[sf.lattice_step]) == directional_exponent(sf)

    def test_scan(self, tmp_path):
        fields = synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=128, seed=5), 2)
        scan = scan_anisotropy(fields, [0.4, 0.6, 0.8, 1.0], 2.0)
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        back = fileio.read_scan(path)
        assert back.alphas == pytest.approx(scan.alphas)
        assert back.exponents == pytest.approx(scan.exponents)
        assert back.argmax_alpha == scan.argmax_alpha
        assert back.peak == pytest.approx(scan.peak)

    @pytest.mark.parametrize("rows", ["", "0.5,nan,0.1\n", "0.5,0.3,0.1\n1.0,-inf,0.1\n"],
                             ids=["empty", "nan_mean", "one_minus_inf"])
    def test_scan_table_without_finite_exponents(self, rows, tmp_path):
        # an all-NaN table used to escape as StopIteration from the argmax
        path = tmp_path / "scan.csv"
        path.write_text("alpha,exponent_mean,exponent_stderr\n" + rows)
        with pytest.raises(ValueError, match="finite exponent_mean"):
            fileio.read_scan(path)

    @pytest.mark.parametrize("d,argmax", [(1e-10, 0.9), (1e-8, 1.1)])
    def test_scan_tie_rule_read_back(self, d, argmax, tmp_path):
        # the reader picks the peak by the estimator's rule: the first alpha
        # within 1e-9 of the largest mean
        scan = besov.scan_exponents([(0.5, 0.5 + d), (0.5, 0.5 + d)], [0.9, 1.1])
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        back = fileio.read_scan(path)
        assert back.argmax_alpha == scan.argmax_alpha == argmax
        assert back.peak == scan.peak

    @pytest.mark.parametrize("rows", ["", "0.5,nan\n1.0,nan\n", "0.5,-1.0\n1.0,nan\n",
                                      "0.5,-1.0\n1.0,inf\n"],
                             ids=["empty", "nan_rates", "one_nan", "one_inf"])
    def test_ratio_table_without_finite_rates(self, rows, tmp_path):
        # a NaN table used to read back as best_ratio=1.0, slope_at_best=nan,
        # and an empty one raised numpy's argmax error without the path
        path = tmp_path / "ratio.csv"
        path.write_text("ratio,decay_rate\n" + rows)
        with pytest.raises(ValueError, match="finite decay_rate") as err:
            fileio.read_ratio_scan(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_ratio_tie_picks_first(self, tmp_path):
        path = tmp_path / "ratio.csv"
        path.write_text("ratio,decay_rate\n0.5,-2.0\n0.8,-1.0\n1.2,-1.0\n")
        back = fileio.read_ratio_scan(path)
        assert (back.best_ratio, back.slope_at_best) == (0.8, -1.0)

    def test_structure_function_zero_direction(self, tmp_path):
        # direction 0,0 used to escape as ZeroDivisionError
        path = tmp_path / "sf.csv"
        path.write_text("direction_u,direction_v,p,t,S,grid_n\n0,0,2.0,0.0625,1.0,64\n")
        with pytest.raises(ValueError, match="direction 0,0"):
            fileio.read_structure_functions(path)

    def test_scale_statistics(self, field, tmp_path):
        pyr = hyperbolic_transform(field, filt="haar", levels=(4, 4))
        stats = pooled_scale_statistics([pyr], 2.0)
        path = tmp_path / "stats.csv"
        fileio.write_scale_statistics(path, stats)
        back = fileio.read_scale_statistics(path)
        assert (back.p, back.grid_n, back.levels) == (2.0, 64, (4, 4))
        for key, v in stats.log2_stat.items():
            if math.isfinite(v):
                assert back.log2_stat[key] == pytest.approx(v)

    def test_scale_statistics_ratio_scan_after_read_back(self, field, tmp_path):
        stats = pooled_scale_statistics([hyperbolic_transform(field, filt="d4", levels=(5, 5))], 2.0)
        path = tmp_path / "stats.csv"
        fileio.write_scale_statistics(path, stats)
        back = ratio_maximize(fileio.read_scale_statistics(path))
        ref = ratio_maximize(stats)
        assert back.decay_rates == pytest.approx(ref.decay_rates, rel=1e-12)

    @pytest.mark.parametrize("kind,header,column", [
        ("sf", "direction_u,direction_v,p,t,S\n1,0,2.0,0.0625,1.0\n", "grid_n"),
        ("stats", "j1,j2,p,log2_stat\n1,1,2.0,-3.0\n", "grid_n, levels_1, levels_2"),
    ], ids=["sf", "stats"])
    def test_table_without_new_columns(self, kind, header, column, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(header)
        reader = {"sf": fileio.read_structure_functions,
                  "stats": fileio.read_scale_statistics}[kind]
        with pytest.raises(ValueError, match=f"lacks column {column}"):
            reader(path)

    def test_table_with_two_grids_rejected(self, tmp_path):
        path = tmp_path / "sf.csv"
        path.write_text("direction_u,direction_v,p,t,S,grid_n\n"
                        "1,0,2.0,0.0625,1.0,64\n1,0,2.0,0.125,2.0,128\n")
        with pytest.raises(ValueError, match="grid_n must hold one value"):
            fileio.read_structure_functions(path)

    _SF = "direction_u,direction_v,p,t,S,grid_n\n"
    _STATS = "j1,j2,p,log2_stat,grid_n,levels_1,levels_2\n"

    @pytest.mark.parametrize("reader,text,message", [
        ("sf", _SF + "1,0,2.0,0.0625,1.0\n", "not enough values"),
        ("sf", _SF + "1,0,0.5,0.0625,1.0,64\n", "order p must be >= 1 or inf"),
        ("sf", _SF + "1,0,2.0,nan,1.0,64\n", "each lag finite and > 0"),
        ("scan", "alpha,exponent_mean,exponent_stderr\n0.5,0.3\n", "not enough values"),
        ("scan", "alpha,exponent_mean,exponent_stderr\n0.5,x,0.1\n", "could not convert"),
        ("stats", _STATS + "1,2.5,2.0,-3.0,64,3,3\n", "invalid literal for int"),
        ("stats", _STATS + "0,0,2.0,-3.0,64,3,3\n9,9,2.0,-4.0,64,3,3\n",
         r"blocks \[\(0, 0\), \(9, 9\)\] lie outside levels \(3, 3\)"),
        ("stats", _STATS + "1,1,0.5,-3.0,64,3,3\n", "order p must be >= 1 or inf"),
        ("stats", _STATS + "".join(f"{j1},{j2},2.0,-3.0,0,3,3\n" for j1 in (1, 2) for j2 in (1, 2)),
         "grid_n must be a power of two >= 2, got 0"),
        ("stats", _STATS + "".join(f"{j1},{j2},2.0,-3.0,8,5,5\n" for j1 in (1, 2) for j2 in (1, 2)),
         r"levels must be two integers in 1\.\.3 = log2\(grid_n\), got \(5, 5\)"),
        ("ratio", "ratio,decay_rate\n0.5\n", "not enough values"),
        ("ratio", "ratio,decay_rate\n0.5,-1.0\n\xff\n", "codec can't decode"),
    ], ids=["sf_short_row", "sf_order", "sf_nan_lag", "scan_short_row", "scan_cell_x",
            "stats_j2_2.5", "stats_outside_levels", "stats_order", "stats_grid_n_0",
            "stats_levels_past_grid", "ratio_short_row",
            "ratio_invalid_utf8"])
    def test_malformed_table_names_path(self, reader, text, message, tmp_path):
        # rows that once raised ValueErrors without the path, or read back
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("latin-1"))
        read = {"sf": fileio.read_structure_functions, "scan": fileio.read_scan,
                "stats": fileio.read_scale_statistics, "ratio": fileio.read_ratio_scan}[reader]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            read(path)

    def test_ratio_scan(self, field, tmp_path):
        pyr = hyperbolic_transform(field, filt="haar", levels=(5, 5))
        scan = ratio_maximize(pooled_scale_statistics([pyr], 2.0))
        path = tmp_path / "ratio.csv"
        fileio.write_ratio_scan(path, scan)
        back = fileio.read_ratio_scan(path)
        assert back.ratios == pytest.approx(scan.ratios)
        assert back.decay_rates == pytest.approx(scan.decay_rates)
        assert back.best_ratio == pytest.approx(scan.best_ratio)
