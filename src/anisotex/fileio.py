"""On-disk formats: the ANIF field container and CSV tables.

ANIF layout: magic ``ANIF``, format version (u32 LE), grid size n
(u32 LE), a length-prefixed UTF-8 JSON document describing the
generating spec, then n*n IEEE-754 float64 little-endian samples in
row-major order. All writers go through a temp-file-then-rename so
partially written artifacts never appear under the target name.

CSV dialect: header row, ``.`` decimal separator, LF line endings.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .besov import ExponentScan, StructureFunction
from .core import Anisotropy, FieldSpec, SampledField
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
    object with usable ``alpha0``, ``hurst`` and ``grid_n``."""
    if not isinstance(d, dict):
        raise ValueError(f"spec must be a JSON object, got {type(d).__name__}")
    missing = [k for k in ("alpha0", "hurst", "grid_n") if k not in d]
    if missing:
        raise ValueError(f"spec lacks {', '.join(missing)}")
    try:
        alpha0, hurst, grid_n = float(d["alpha0"]), float(d["hurst"]), int(d["grid_n"])
        seed = int(d.get("seed", 0))
    except (TypeError, OverflowError) as e:  # null, list or infinite values
        raise ValueError(f"spec value of the wrong type: {e}") from None
    return FieldSpec(
        anisotropy=Anisotropy.diagonal(alpha0),
        hurst=hurst,
        rho=str(d.get("rho", "power_sum")),
        grid_n=grid_n,
        seed=seed,
    )


def write_field(path, field: SampledField) -> None:
    """Serialize a field to the ANIF binary container."""
    payload = json.dumps(spec_to_dict(field.spec)).encode("utf-8")
    n = field.grid_n

    def writer(fh):
        fh.write(ANIF_MAGIC)
        fh.write(struct.pack("<II", ANIF_VERSION, n))
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())

    _atomic_write(path, writer)


def _read_exact(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what} ({len(data)} of {size} bytes)")
    return data


def read_field(path) -> SampledField:
    """Read an ANIF container back into a SampledField."""
    with open(path, "rb") as fh:
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
        text = _read_exact(fh, jlen, path, "spec").decode("utf-8")
        try:
            spec = spec_from_dict(json.loads(text))
        except ValueError as e:
            raise ValueError(f"{path}: bad spec: {e}") from None
        if spec.grid_n != n:
            raise ValueError(f"{path}: header n={n} disagrees with spec grid_n={spec.grid_n}")
        data = _read_exact(fh, 8 * n * n, path, "sample payload")
        values = np.frombuffer(data, dtype="<f8").reshape(n, n).astype(float)
    return SampledField(values=values, spec=spec)


def _fmt(x) -> str:
    if x == math.inf:
        return "inf"
    return repr(float(x))


def _write_csv(path, header, rows):
    def writer(fh):
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for row in rows:
            fh.write((",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n").encode("utf-8"))

    _atomic_write(path, writer)


def _read_csv(path, header):
    """Rows of a CSV table, split on commas, after checking its header row."""
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip().split(",")
        if got != header:
            raise ValueError(f"{path}: unexpected header {got}")
        return [line.strip().split(",") for line in fh]


def write_structure_functions(path, sfs) -> None:
    """Columns: direction_u, direction_v, p, t, S (one observation per row)."""
    rows = []
    for sf in sfs:
        u, v = sf.lattice_step
        for t, s in zip(sf.lags, sf.values):
            rows.append((u, v, float(sf.p), float(t), float(s)))
    _write_csv(path, ["direction_u", "direction_v", "p", "t", "S"], rows)


def read_structure_functions(path):
    """Group rows back into StructureFunction tables (per direction and p)."""
    groups = {}
    for su, sv, sp, st, ss in _read_csv(path, ["direction_u", "direction_v", "p", "t", "S"]):
        key = (int(su), int(sv), float(sp))
        groups.setdefault(key, []).append((float(st), float(ss)))
    out = []
    for (u, v, p), pairs in groups.items():
        pairs.sort()
        nrm = math.hypot(u, v)
        out.append(StructureFunction(direction=(u / nrm, v / nrm), lattice_step=(u, v),
                                     p=p, lags=tuple(t for t, _ in pairs),
                                     values=tuple(s for _, s in pairs)))
    return out


def write_scan(path, scan: ExponentScan) -> None:
    """Columns: alpha, exponent_mean, exponent_stderr."""
    rows = list(zip(map(float, scan.alphas), map(float, scan.exponents),
                    map(float, scan.stderrs)))
    _write_csv(path, ["alpha", "exponent_mean", "exponent_stderr"], rows)


def read_scan(path) -> ExponentScan:
    alphas, means, errs = [], [], []
    for row in _read_csv(path, ["alpha", "exponent_mean", "exponent_stderr"]):
        a, m, e = map(float, row)
        alphas.append(a)
        means.append(m)
        errs.append(e)
    peak = max(means)
    argmax = next(a for a, m in zip(alphas, means) if m >= peak - 1e-9)
    return ExponentScan(alphas=tuple(alphas), exponents=tuple(means), stderrs=tuple(errs),
                        argmax_alpha=argmax, peak=peak)


def write_scale_statistics(path, stats: ScaleStats) -> None:
    """Columns: j1, j2, p, log2_stat."""
    rows = [(j1, j2, float(stats.p), float(v))
            for (j1, j2), v in sorted(stats.log2_stat.items())
            if math.isfinite(v)]
    _write_csv(path, ["j1", "j2", "p", "log2_stat"], rows)


def read_scale_statistics(path, grid_n, levels) -> ScaleStats:
    table = {}
    p = None
    for s1, s2, sp, sv in _read_csv(path, ["j1", "j2", "p", "log2_stat"]):
        table[(int(s1), int(s2))] = float(sv)
        p = float(sp)
    return ScaleStats(grid_n=grid_n, levels=levels, p=p, log2_stat=table)


def write_ratio_scan(path, scan: RatioScan) -> None:
    """Columns: ratio, decay_rate."""
    rows = list(zip(map(float, scan.ratios), map(float, scan.decay_rates)))
    _write_csv(path, ["ratio", "decay_rate"], rows)


def read_ratio_scan(path) -> RatioScan:
    ratios, rates = [], []
    for row in _read_csv(path, ["ratio", "decay_rate"]):
        r, d = map(float, row)
        ratios.append(r)
        rates.append(d)
    best_i = int(np.argmax(rates))
    return RatioScan(ratios=tuple(ratios), decay_rates=tuple(rates),
                     best_ratio=ratios[best_i], slope_at_best=rates[best_i])


def write_json(path, obj) -> None:
    _atomic_write(path, lambda fh: fh.write((json.dumps(obj, indent=2) + "\n").encode("utf-8")))
