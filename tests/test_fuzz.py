"""Property-based fuzzing of the file readers and the CLI parsers.

Every input must parse or be rejected cleanly: the readers and parsers
raise ValueError, which the CLI turns into exit 2, and the CLI itself
never exits 1 or prints a traceback.
"""
import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from anisotex import FieldSpec, fileio, synth  # noqa: E402
from anisotex.cli import MAX_ALPHA_GRID, _parse_alpha_grid, _parse_spec, main  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None)

_TMP = tempfile.TemporaryDirectory(prefix="anisotex-fuzz-")  # removed at exit
_WORK = Path(_TMP.name)
_SPEC = {"alpha0": 0.6, "hurst": 0.4, "rho": "power_sum", "grid_n": 64, "seed": 1}
_PAYLOAD = synth.synthesize(FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)).values.astype("<f8").tobytes()


def _anif(spec_bytes, n=64, payload=_PAYLOAD):
    return b"ANIF" + struct.pack("<III", 1, n, len(spec_bytes)) + spec_bytes + payload


_VALID = _anif(json.dumps(_SPEC).encode())


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _hywave_exit(data):
    path = _WORK / "f.anif"
    path.write_bytes(data)
    rc, err = _run_cli(["hywave", "--in", str(path), "--out", str(_WORK / "hw")])
    assert rc in (0, 2), err
    assert "Traceback" not in err and "internal error" not in err
    return rc


def _value_or_value_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


_json_value = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.text(max_size=6), st.lists(st.integers(), max_size=2))
_spec_json = st.dictionaries(st.sampled_from(sorted(_SPEC) + ["x"]), _json_value, max_size=6)


class TestAnifFuzz:
    def test_valid_file_exits_zero(self):
        assert _hywave_exit(_VALID) == 0

    @FUZZ
    @given(st.integers(0, len(_VALID) - 1))
    def test_truncated(self, cut):
        assert _hywave_exit(_VALID[:cut]) == 2

    @FUZZ
    @given(st.lists(st.tuples(st.integers(0, len(_VALID) - 1), st.integers(0, 255)),
                    min_size=1, max_size=8))
    def test_garbled_bytes(self, edits):
        data = bytearray(_VALID)
        for pos, byte in edits:
            data[pos] = byte
        _hywave_exit(bytes(data))

    @FUZZ
    @given(st.one_of(st.binary(max_size=48),
                     _spec_json.map(lambda d: json.dumps(d).encode()),
                     st.builds(lambda d: json.dumps({**_SPEC, **d}).encode(), _spec_json)),
           st.sampled_from([64, 0, 1, 2 ** 31]))
    def test_garbled_spec(self, spec_bytes, n):
        _hywave_exit(_anif(spec_bytes, n))


_CELL = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "1e999", "-0", "x", "0", "1",
                                   "2.0", "0.0625", "64", "-3", "4"]),
                  st.floats(allow_nan=True).map(repr), st.integers(-5, 200).map(str))
_HEADERS = {
    fileio.read_structure_functions: ["direction_u", "direction_v", "p", "t", "S", "grid_n"],
    fileio.read_scan: ["alpha", "exponent_mean", "exponent_stderr"],
    fileio.read_scale_statistics: ["j1", "j2", "p", "log2_stat", "grid_n",
                                   "levels_1", "levels_2"],
    fileio.read_ratio_scan: ["ratio", "decay_rate"],
}


class TestCsvFuzz:
    @FUZZ
    @given(st.sampled_from(sorted(_HEADERS, key=lambda f: f.__name__)), st.data())
    def test_readers_parse_or_raise_value_error(self, reader, data):
        header = _HEADERS[reader]
        if data.draw(st.booleans()):
            header = data.draw(st.lists(st.sampled_from(header + ["x"]), max_size=8))
        # rows of the header's width most of the time, ragged ones otherwise
        row = st.one_of(st.lists(_CELL, min_size=len(header), max_size=len(header)),
                        st.lists(_CELL, max_size=8))
        rows = data.draw(st.lists(row, max_size=6))
        tail = data.draw(st.binary(max_size=8))
        text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
        path = _WORK / "t.csv"
        path.write_bytes(text.encode() + tail)
        try:
            reader(path)
        except ValueError as e:
            assert str(path) in str(e)  # every refusal names the table


_NUM = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                 st.integers(-2 ** 40, 2 ** 40).map(str),
                 st.sampled_from(["", "x", "1e9", "0.5", "1.5", "0.2", "-1", "nan", "2048",
                                  "64", "256", "1_0"]))


class TestParserFuzz:
    @FUZZ
    @given(st.one_of(st.text(max_size=40),
                     st.builds(lambda a, h, n, s: f"alpha0={a},hurst={h},n={n},seed={s}",
                               _NUM, _NUM, _NUM, _NUM),
                     st.lists(st.tuples(st.sampled_from(["alpha0", "hurst", "n", "grid_n",
                                                         "seed", "k", ""]), _NUM),
                              max_size=5).map(
                         lambda kv: ",".join(f"{k}={v}" for k, v in kv))))
    def test_parse_spec(self, text):
        spec = _value_or_value_error(_parse_spec, text)
        assert spec is None or isinstance(spec, FieldSpec)

    @FUZZ
    @given(st.lists(st.tuples(st.sampled_from(["alpha0", "hurst", "n", "grid_n", "seed", "k"]),
                              _NUM), min_size=1, max_size=5),
           st.integers(0, 4))
    def test_parse_spec_repeated_key(self, kv, i):
        # whatever the values, the first key given twice is named
        kv = kv + [kv[i % len(kv)]]
        keys = [k for k, _ in kv]
        first = next(k for j, k in enumerate(keys) if k in keys[:j])
        with pytest.raises(ValueError, match=f"repeats the key '{first}'"):
            _parse_spec(",".join(f"{k}={v}" for k, v in kv))

    @FUZZ
    @given(st.permutations(["alpha0", "hurst", "n", "grid_n", "seed"]),
           st.lists(_NUM, min_size=5, max_size=5))
    def test_parse_spec_grid_n_unknown(self, keys, values):
        # the grid size is n only; grid_n is named as unknown, whatever the values
        with pytest.raises(ValueError, match=r"^unknown keys in --spec: \['grid_n'\]$"):
            _parse_spec(",".join(f"{k}={v}" for k, v in zip(keys, values)))

    @FUZZ
    @given(st.one_of(st.text(max_size=30),
                     st.builds(lambda a, b, c: f"{a}:{b}:{c}", _NUM, _NUM, _NUM)))
    @example("0.0:1.7976913371691814e+296:1.797693134862316e+296")  # round overflowed
    def test_parse_alpha_grid(self, text):
        grid = _value_or_value_error(_parse_alpha_grid, text)
        assert grid is None or len(grid) <= MAX_ALPHA_GRID + 1
        assert grid is None or all(math.isfinite(a) for a in grid)
