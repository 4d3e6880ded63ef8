import math

import numpy as np
import pytest

from anisotex import (
    FieldSpec,
    hyperbolic_transform,
    ratio_maximize,
    scale_statistics,
    scan_anisotropy,
    structure_function,
    synthesize,
    synthesize_ensemble,
)
from anisotex import fileio


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

    def test_malformed_header(self, malformed_anif):
        path, message = malformed_anif
        with pytest.raises(ValueError, match=message):
            fileio.read_field(path)


class TestCsvRoundTrips:
    def test_structure_functions(self, field, tmp_path):
        sfs = [structure_function(field, (1, 0), 2.0),
               structure_function(field, (0, 1), math.inf)]
        path = tmp_path / "sf.csv"
        fileio.write_structure_functions(path, sfs)
        text = path.read_text()
        assert text.splitlines()[0] == "direction_u,direction_v,p,t,S"
        assert "\r" not in text
        back = fileio.read_structure_functions(path)
        by_key = {(sf.lattice_step, sf.p): sf for sf in back}
        for sf in sfs:
            got = by_key[(sf.lattice_step, sf.p)]
            assert got.lags == pytest.approx(sf.lags)
            assert got.values == pytest.approx(sf.values)

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

    def test_scale_statistics(self, field, tmp_path):
        pyr = hyperbolic_transform(field, filt="haar", levels=(4, 4))
        stats = scale_statistics(pyr, 2.0)
        path = tmp_path / "stats.csv"
        fileio.write_scale_statistics(path, stats)
        back = fileio.read_scale_statistics(path, grid_n=64, levels=(4, 4))
        assert back.p == 2.0
        for key, v in stats.log2_stat.items():
            if math.isfinite(v):
                assert back.log2_stat[key] == pytest.approx(v)

    def test_ratio_scan(self, field, tmp_path):
        pyr = hyperbolic_transform(field, filt="haar", levels=(5, 5))
        scan = ratio_maximize(scale_statistics(pyr, 2.0))
        path = tmp_path / "ratio.csv"
        fileio.write_ratio_scan(path, scan)
        back = fileio.read_ratio_scan(path)
        assert back.ratios == pytest.approx(scan.ratios)
        assert back.decay_rates == pytest.approx(scan.decay_rates)
        assert back.best_ratio == pytest.approx(scan.best_ratio)
