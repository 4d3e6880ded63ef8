import json
import struct

import numpy as np
import pytest

from anisotex import FieldSpec, SampledField


@pytest.fixture
def zero_field():
    """A constant (zero) field: the degenerate input for estimator tests."""
    spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=0)
    return SampledField(values=np.zeros((64, 64)), spec=spec)


@pytest.fixture
def ramp_field():
    """f(x) = x1 on the grid: linear increments along axis 0, none along axis 1."""
    n = 128
    spec = FieldSpec.make(1.0, 0.5, grid_n=n, seed=0)
    i = np.arange(n) / n
    return SampledField(values=np.tile(i[:, None], (1, n)), spec=spec)


def _header(spec, n, version=1):
    spec = json.dumps(spec).encode("utf-8")
    return b"ANIF" + struct.pack("<III", version, n, len(spec)) + spec


_HUGE = {"alpha0": 0.6, "hurst": 0.4, "rho": "power_sum", "grid_n": 2 ** 31, "seed": 0}


def _file64(version=1, **spec):
    """A well-sized 64^2 ANIF file whose spec is the valid one updated by spec."""
    return _header({"alpha0": 0.6, "hurst": 0.4, "grid_n": 64, **spec}, 64, version) + bytes(8 * 64 * 64)


@pytest.fixture(params=[(b"ANIF", "truncated"), (b"ANIF\x01\x00", "truncated"),
                        (_header(_HUGE, 2 ** 31), "truncated"),
                        (_header({}, 64) + bytes(8 * 64 * 64), "bad spec: spec lacks alpha0"),
                        (_header([1, 2], 64) + bytes(8 * 64 * 64), "bad spec: spec must be"),
                        (_file64(alpha0=None), "bad spec: spec value of the wrong type"),
                        (_file64(rho="mystery"), "bad spec: unsupported weight rho = 'mystery'"),
                        (_file64(grid_n=64.5), "bad spec: spec grid_n must be an integer, got 64.5"),
                        (_file64(seed=1.9), "bad spec: spec seed must be an integer, got 1.9"),
                        (_file64(hurst=True), "bad spec: spec value of the wrong type: hurst = True"),
                        (_file64(alpha0="0.6"), "bad spec: spec value of the wrong type: alpha0 = '0.6'"),
                        (_file64(seed="1"), "bad spec: spec value of the wrong type: seed = '1'"),
                        (_file64(hurst=10 ** 400), "bad spec: spec value beyond the float64 range"),
                        (_file64(alpha0=0.05, hurst=0.01), "bad spec: alpha0 = 0.05 is beyond the floor"),
                        (_file64(alpha0=float("nan")), "bad spec: alpha0 = nan is beyond the floor"),
                        (_file64(version=2), "unsupported ANIF version 2"),
                        (_file64(grid_n=128), "header n=64 disagrees with spec grid_n=128")],
                ids=["after_magic", "mid_header", "n_2_31", "empty_spec", "list_spec",
                     "null_alpha0", "unknown_rho", "fractional_grid_n", "fractional_seed",
                     "bool_hurst", "string_alpha0", "string_seed", "huge_int_hurst", "below_floor",
                     "nan_alpha0", "version_2", "n_disagrees"])
def malformed_anif(request, tmp_path):
    """(path, expected message) for an ANIF file cut off in its header, whose
    header claims n = 2^31, or a well-sized 64^2 file whose spec JSON is an
    empty object or a list, has a null, boolean, string, fractional or
    unrepresentable value, names a weight other than power_sum, has an
    alpha0 below the floor of the field domain or NaN, or a grid_n other
    than the header's n, or a file of a format version other than 1."""
    data, message = request.param
    path = tmp_path / "bad.anif"
    path.write_bytes(data)
    return path, message
