"""On-disk formats: the ANIF field container and CSV tables.

ANIF layout: magic ``ANIF``, format version (u32 LE), grid size n
(u32 LE), a length-prefixed UTF-8 JSON document describing the
generating spec, then n*n IEEE-754 float64 little-endian samples in
row-major order. All writers go through a temp-file-then-rename so
partially written artifacts never appear under the target name.

CSV dialect: header row, ``.`` decimal separator, LF line endings.
"""
from __future__ import annotations

import functools
import json
import math
import os
import struct
import tempfile

import numpy as np

from .besov import ExponentScan, StructureFunction
from .core import FieldSpec, SampledField
from .hywave import RatioScan, ScaleStats

ANIF_MAGIC = b"ANIF"
ANIF_VERSION = 1


def _atomic_write(path, writer):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".anisotex-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def spec_to_dict(spec: FieldSpec) -> dict:
    return {
        "alpha0": spec.alpha0,
        "hurst": spec.hurst,
        "rho": spec.rho,
        "grid_n": spec.grid_n,
        "seed": spec.seed,
    }


def spec_from_dict(d) -> FieldSpec:
    """Rebuild a spec from its decoded JSON; raises ValueError unless it is an
    object with numeric ``alpha0`` and ``hurst``, integral ``grid_n`` and
    ``seed`` (default 0), and no ``rho`` other than ``power_sum``."""
    if not isinstance(d, dict):
        raise ValueError(f"spec must be a JSON object, got {type(d).__name__}")
    missing = [k for k in ("alpha0", "hurst", "grid_n") if k not in d]
    if missing:
        raise ValueError(f"spec lacks {', '.join(missing)}")
    if d.get("rho", FieldSpec.rho) != FieldSpec.rho:
        raise ValueError(f"unsupported weight rho = {d['rho']!r}; only {FieldSpec.rho!r} is known")
    d = {"seed": 0, **d}
    for key in ("alpha0", "hurst", "grid_n", "seed"):
        v = d[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):  # bool is an int subclass
            raise ValueError(f"spec value of the wrong type: {key} = {v!r}")
        if key in ("grid_n", "seed") and isinstance(v, float) and not v.is_integer():
            raise ValueError(f"spec {key} must be an integer, got {v!r}")
    try:
        alpha0, hurst = float(d["alpha0"]), float(d["hurst"])
    except OverflowError:  # an integer beyond the float64 range
        raise ValueError("spec value beyond the float64 range") from None
    return FieldSpec(alpha0, hurst, int(d["grid_n"]), int(d["seed"]))


def write_field(path, field: SampledField) -> None:
    """Serialize a field to the ANIF binary container."""
    payload = json.dumps(spec_to_dict(field.spec)).encode("utf-8")
    n = field.grid_n
    samples = np.ascontiguousarray(field.values, dtype="<f8")  # no copy on little-endian hosts

    def writer(fh):
        fh.write(ANIF_MAGIC)
        fh.write(struct.pack("<II", ANIF_VERSION, n))
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        fh.write(memoryview(samples).cast("B"))

    _atomic_write(path, writer)


def _read_exact(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what} ({len(data)} of {size} bytes)")
    return data


def _read_header(fh, path) -> FieldSpec:
    """Check an open ANIF file's magic, version, size and spec, and return
    the spec; the file is left at the start of the sample payload."""
    magic = fh.read(4)
    if magic != ANIF_MAGIC:
        raise ValueError(f"{path}: not an ANIF file (magic {magic!r})")
    version, n = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
    if version != ANIF_VERSION:
        raise ValueError(f"{path}: unsupported ANIF version {version}")
    (jlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
    # the size check comes before any read sized by the header, so a
    # corrupt n or JSON length cannot request more memory than the file
    expected = fh.tell() + jlen + 8 * n * n
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise ValueError(f"{path}: truncated or oversized: header implies {expected} bytes "
                         f"(n = {n}, spec {jlen} bytes), file has {actual}")
    data = _read_exact(fh, jlen, path, "spec")
    try:
        spec = spec_from_dict(json.loads(data.decode("utf-8")))
    except ValueError as e:
        raise ValueError(f"{path}: bad spec: {e}") from None
    if spec.grid_n != n:
        raise ValueError(f"{path}: header n={n} disagrees with spec grid_n={spec.grid_n}")
    return spec


def read_spec(path) -> FieldSpec:
    """The spec of an ANIF file, after every check that ``read_field`` makes
    of its header, size and spec; the sample payload is not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_field(path) -> SampledField:
    """Read an ANIF container back into a SampledField. The payload is read
    straight into the sample array, with no intermediate bytes object."""
    with open(path, "rb") as fh:
        spec = _read_header(fh, path)
        n = spec.grid_n
        values = np.empty((n, n), dtype="<f8")
        got = fh.readinto(memoryview(values).cast("B"))
        if got != values.nbytes:
            raise ValueError(f"{path}: truncated sample payload ({got} of {values.nbytes} bytes)")
    return SampledField(values=values.astype(float, copy=False), spec=spec)


def _write_csv(path, header, rows):
    def writer(fh):
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for row in rows:
            fh.write((",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n").encode("utf-8"))

    _atomic_write(path, writer)


def _names_path(reader):
    """``reader`` with the path put before every ValueError that it raises."""
    @functools.wraps(reader)
    def read(path):
        try:
            return reader(path)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    return read


def _read_csv(path, header):
    """Rows of a CSV table, split on commas, after checking its header row."""
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip().split(",")
        missing = [c for c in header if c not in got]
        if missing:
            raise ValueError(f"table lacks column {', '.join(missing)}")
        if got != header:
            raise ValueError(f"unexpected header {got}")
        return [line.strip().split(",") for line in fh]


def _table_constant(values, name):
    """The one value a per-row column such as grid_n holds throughout a table."""
    if len(set(values)) != 1:
        raise ValueError(f"column {name} must hold one value, got {sorted(set(values))}")
    return values[0]


_SF_HEADER = ["direction_u", "direction_v", "p", "t", "S", "grid_n"]


def write_structure_functions(path, sfs) -> None:
    """Columns: direction_u, direction_v, p, t, S, grid_n (one observation
    per row); grid_n lets a table that is read back be fitted."""
    rows = []
    for sf in sfs:
        u, v = sf.lattice_step
        for t, s in zip(sf.lags, sf.values):
            rows.append((u, v, float(sf.p), float(t), float(s), sf.grid_n))
    _write_csv(path, _SF_HEADER, rows)


@_names_path
def read_structure_functions(path):
    """Group rows back into StructureFunction tables (per direction and p)."""
    groups = {}
    sizes = []
    for su, sv, sp, st, ss, sn in _read_csv(path, _SF_HEADER):
        groups.setdefault((int(su), int(sv), float(sp)), []).append((float(st), float(ss)))
        sizes.append(int(sn))
    grid_n = _table_constant(sizes, "grid_n") if sizes else 0
    out = []
    for (u, v, p), pairs in groups.items():
        pairs.sort()
        out.append(StructureFunction(lattice_step=(u, v), p=p, lags=tuple(t for t, _ in pairs),
                                     values=tuple(s for _, s in pairs), grid_n=grid_n))
    return out


def write_scan(path, scan: ExponentScan) -> None:
    """Columns: alpha, exponent_mean, exponent_stderr."""
    rows = list(zip(map(float, scan.alphas), map(float, scan.exponents),
                    map(float, scan.stderrs)))
    _write_csv(path, ["alpha", "exponent_mean", "exponent_stderr"], rows)


@_names_path
def read_scan(path) -> ExponentScan:
    alphas, means, errs = [], [], []
    for row in _read_csv(path, ["alpha", "exponent_mean", "exponent_stderr"]):
        a, m, e = map(float, row)
        alphas.append(a)
        means.append(m)
        errs.append(e)
    return ExponentScan(alphas, means, errs)


_STATS_HEADER = ["j1", "j2", "p", "log2_stat", "grid_n", "levels_1", "levels_2"]


def write_scale_statistics(path, stats: ScaleStats) -> None:
    """Columns: j1, j2, p, log2_stat, grid_n, levels_1, levels_2; the last
    three carry the pyramid's grid and depths, so the table reads back alone."""
    J1, J2 = stats.levels
    rows = [(j1, j2, float(stats.p), float(v), stats.grid_n, J1, J2)
            for (j1, j2), v in sorted(stats.log2_stat.items())
            if math.isfinite(v)]
    _write_csv(path, _STATS_HEADER, rows)


@_names_path
def read_scale_statistics(path) -> ScaleStats:
    table = {}
    ps, sizes, levels = [], [], []
    for s1, s2, sp, sv, sn, l1, l2 in _read_csv(path, _STATS_HEADER):
        table[(int(s1), int(s2))] = float(sv)
        ps.append(float(sp))
        sizes.append(int(sn))
        levels.append((int(l1), int(l2)))
    if not table:
        raise ValueError("empty scale-statistics table")
    return ScaleStats(grid_n=_table_constant(sizes, "grid_n"), levels=_table_constant(levels, "levels"),
                      p=_table_constant(ps, "p"), log2_stat=table)


def write_ratio_scan(path, scan: RatioScan) -> None:
    """Columns: ratio, decay_rate."""
    rows = list(zip(map(float, scan.ratios), map(float, scan.decay_rates)))
    _write_csv(path, ["ratio", "decay_rate"], rows)


@_names_path
def read_ratio_scan(path) -> RatioScan:
    ratios, rates = [], []
    for row in _read_csv(path, ["ratio", "decay_rate"]):
        r, d = map(float, row)
        ratios.append(r)
        rates.append(d)
    return RatioScan(ratios, rates)


def write_json(path, obj) -> None:
    _atomic_write(path, lambda fh: fh.write((json.dumps(obj, indent=2) + "\n").encode("utf-8")))
