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


def _huge_header():
    spec = json.dumps({"alpha0": 0.6, "hurst": 0.4, "rho": "power_sum",
                       "grid_n": 2 ** 31, "seed": 0}).encode("utf-8")
    return b"ANIF" + struct.pack("<III", 1, 2 ** 31, len(spec)) + spec


@pytest.fixture(params=[b"ANIF", b"ANIF\x01\x00", _huge_header()],
                ids=["after_magic", "mid_header", "n_2_31"])
def malformed_anif(request, tmp_path):
    """An ANIF file cut off in its header, or whose header claims n = 2^31."""
    path = tmp_path / "bad.anif"
    path.write_bytes(request.param)
    return path
