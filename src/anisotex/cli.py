"""Command-line front end.

Subcommands: ``simulate`` (write an ANIF field), ``scan`` (anisotropy
scan of the critical exponent), ``analyze`` (structure functions and
directional exponents), ``hywave`` (hyperbolic wavelet statistics and
ratio scan), ``selftest`` (fast built-in checks).

Exit codes: 0 success, 1 internal or numerical failure, 2 usage or
domain error, or an OS error on an input or output path.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import besov, ensemble, fileio, homog, hywave, synth
from .core import FieldSpec, check_order, matrix_power


MAX_ALPHA_GRID = 10000


def _parse_alpha_grid(text):
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"bad alpha grid {text!r}; expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"alpha grid {text!r} must be finite")
    if step <= 0:
        raise ValueError(f"alpha grid step must be positive, got {step}")
    if not start < stop:
        return []
    if (stop - start) / step >= MAX_ALPHA_GRID:
        raise ValueError(f"alpha grid {text!r} has more than {MAX_ALPHA_GRID} points")
    grid = list(np.arange(start, stop + step * 1e-6, step))
    # past 1e296, a * 10^12 overflows inside round; floats that large are integers already
    return [round(a, 12) if abs(a) < 1e296 else a for a in grid]


def _parse_p(text):
    return check_order(float(text))


def _parse_spec(text):
    kv = {}
    for part in text.split(","):
        key, _, val = (v.strip() for v in part.partition("="))
        if key in kv:
            raise ValueError(f"--spec repeats the key {key!r}")
        kv[key] = val
    unknown = sorted(kv.keys() - {"alpha0", "hurst", "n", "seed"})
    if unknown:
        raise ValueError(f"unknown keys in --spec: {unknown}")
    try:
        alpha0 = float(kv["alpha0"])
        hurst = float(kv["hurst"])
    except KeyError as e:
        raise ValueError(f"--spec needs alpha0=..,hurst=..: missing {e}") from None
    return FieldSpec.make(alpha0, hurst, grid_n=int(kv.get("n", 256)), seed=int(kv.get("seed", 0)))


# one synthesis peaks at 44 B per grid sample (measured, n = 512..2048) and
# the worker pool adds transients: budget 64 B per synthesis alive at once.
# A streamed scan also keeps a spec, a pool future and an exponent pair per
# realization: 1.8 kB at the peak of synth._pool_map (tracemalloc, 10^5 tasks)
MAX_SYNTH_BYTES = 4 * 2 ** 30
_REALIZATION_BYTES = 2048


def _check_synth_memory(spec, reps=None):
    """Refuse a synthesis over MAX_SYNTH_BYTES: one field that is kept when
    reps is None (simulate), else a streamed ensemble of reps realizations."""
    if reps is None:
        reps, need = 1, spec.grid_n ** 2 * (64 + 8)
    else:
        need = spec.grid_n ** 2 * 64 * min(reps, synth.worker_count()) + reps * _REALIZATION_BYTES
    if need > MAX_SYNTH_BYTES:
        raise ValueError(f"n={spec.grid_n} with {reps} realization(s) needs about "
                         f"{need / 2 ** 30:.1f} GiB, over the {MAX_SYNTH_BYTES >> 30} GiB limit")


def _check_fit_grid(n):
    """The default fit needs a grid of at least besov.min_fit_grid() samples per axis."""
    least = besov.min_fit_grid()
    if n < least:
        raise ValueError(f"n={n} leaves fewer than {besov.MIN_FIT_LAGS} fit lags along the "
                         f"axes; the minimum grid is n={least}")


def cmd_simulate(args) -> int:
    spec = FieldSpec.make(args.alpha0, args.hurst, grid_n=args.size, seed=args.seed)
    _check_synth_memory(spec)
    field = synth.synthesize(spec)
    fileio.write_field(args.out, field)
    print(json.dumps(fileio.spec_to_dict(spec)))
    return 0


def _input_spec(paths):
    """The first input's spec, once every input's header, size and spec
    check out and agree, seeds aside; no sample payload is read."""
    specs = [fileio.read_spec(p) for p in paths]
    ref = specs[0].with_seed(0)
    for s, p in zip(specs[1:], paths[1:]):
        if s.with_seed(0) != ref:
            raise ValueError(f"mixed-spec inputs: {p} disagrees with {paths[0]}")
    return specs[0]


def cmd_scan(args) -> int:
    grid = _parse_alpha_grid(args.alpha_grid)
    if not grid:
        raise ValueError(f"empty grid {args.alpha_grid!r}")
    if args.inputs:
        spec = _input_spec(args.inputs)
        _check_fit_grid(spec.grid_n)
        run = ensemble.reduce_fields(fileio.read_field, args.inputs, grid, args.p)
    elif args.spec:
        spec = _parse_spec(args.spec)
        _check_fit_grid(spec.grid_n)
        _check_synth_memory(spec, args.reps)
        run = ensemble.reduce_synthesis(spec, args.reps, grid, args.p)
    else:
        raise ValueError("provide field files with --in or a --spec with --reps")
    scan = run.scan
    fileio.write_scan(args.out + ".csv", scan)
    inside = [(a, e) for a, e in zip(scan.alphas, scan.exponents) if 0.3 <= a <= 1.7]
    tent_rms = math.sqrt(np.mean([
        (e - besov.tent_prediction(a, spec.alpha0, spec.hurst)) ** 2 for a, e in inside
    ])) if inside else None
    summary = {
        "argmax_alpha": scan.argmax_alpha,
        "peak": scan.peak,
        "p": args.p,
        "realizations": len(run.exponents),
        "true_alpha0": spec.alpha0,
        "true_hurst": spec.hurst,
        "tent_rms": tent_rms,
    }
    fileio.write_json(args.out + ".json", summary)
    print(json.dumps(summary))
    return 0


def cmd_analyze(args) -> int:
    field = fileio.read_field(args.inputs[0]) if len(args.inputs) == 1 else None
    if field is None:
        raise ValueError("analyze expects exactly one --in field file")
    _check_fit_grid(field.grid_n)
    directions = []
    for d in args.direction or ["1,0", "0,1"]:
        u, v = (float(c) for c in d.split(","))
        directions.append((u, v))
    sfs = []
    exponents = {}
    for d in directions:
        sf = besov.structure_function(field, d, args.p)
        sfs.append(sf)
        key = f"{sf.lattice_step[0]},{sf.lattice_step[1]}"
        try:
            de = besov.directional_exponent(sf)
            exponents[key] = {"h": de.h, "stderr": de.stderr, "fit_range": list(de.fit_range)}
        except besov.DegenerateDirectionError as e:
            exponents[key] = {"error": str(e)}
            print(f"warning: direction {key}: {e}", file=sys.stderr)
    fileio.write_structure_functions(args.out + ".csv", sfs)
    fileio.write_json(args.out + ".json", exponents)
    print(json.dumps(exponents))
    return 0


def cmd_hywave(args) -> int:
    field = fileio.read_field(args.input)
    levels = None
    if args.levels is not None:
        levels = (args.levels, args.levels)
    pyr = hywave.hyperbolic_transform(field, filt=args.filter, levels=levels)
    stats = hywave.pooled_scale_statistics([pyr], args.p)
    scan = hywave.ratio_maximize(stats)
    fileio.write_scale_statistics(args.out + "_stats.csv", stats)
    fileio.write_ratio_scan(args.out + "_ratio.csv", scan)
    summary = {"best_ratio": scan.best_ratio, "implied_alpha0": scan.implied_alpha0,
               "slope_at_best": scan.slope_at_best}
    fileio.write_json(args.out + ".json", summary)
    print(json.dumps(summary))
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(("PASS" if ok else "FAIL") + f" {name}")
        if not ok:
            failures += 1

    rho = homog.rho_power_sum(0.6)
    rep = homog.check_homogeneity(rho, trials=1000)
    check("homogeneity", rep.max_relative_error <= 1e-10)
    # admissible iff hurst < min(0.6, 1.4)
    check("admissibility", homog.check_integrability(rho, 0.4).finite
          and not homog.check_integrability(rho, 0.7).finite)

    spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=11)
    f1 = synth.synthesize(spec)
    f2 = synth.synthesize(spec)
    check("determinism", bool(np.array_equal(f1.values, f2.values)))
    check("zero_at_origin", f1.values[0, 0] == 0.0)

    # criterion 3 by quadrature: Var X(a^E x) = a^{2H} Var X(x) at a = 2
    x = np.array([0.25, 0.25])
    lhs = synth.variogram_oracle(spec, matrix_power(spec.anisotropy, 2.0) @ x)
    rhs = 2.0 ** (2.0 * spec.hurst) * synth.variogram_oracle(spec, x)
    check("scaling_identity", abs(lhs - rhs) <= 1e-9 * rhs)

    rng = np.random.Generator(np.random.Philox(key=3))
    noise = rng.standard_normal((64, 64))
    noise[0, 0] = 0.0
    ok = True
    for filt in ("haar", "d4"):
        pyr = hywave.hyperbolic_transform(noise, filt=filt, levels=(4, 4))
        rec = hywave.inverse_hyperbolic_transform(pyr)
        ok = ok and float(np.max(np.abs(rec - noise))) < 1e-9
    check("reconstruction", ok)

    if not args.quick:
        tspec = FieldSpec.make(0.6, 0.4, grid_n=256, seed=7)
        fields = synth.synthesize_ensemble(tspec, 4)
        grid = [round(0.2 + 0.05 * i, 10) for i in range(33)]
        scan = besov.scan_anisotropy(fields, grid, 2.0)
        check("tent_argmax", abs(scan.argmax_alpha - 0.6) <= 0.12)
        check("tent_peak", abs(scan.peak - 0.4) <= 0.08)

    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anisotex",
                                 description="Anisotropic self-similar texture toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a field and write an ANIF file")
    sim.add_argument("--alpha0", type=float, required=True)
    sim.add_argument("--hurst", type=float, required=True)
    sim.add_argument("--size", type=int, default=256)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    sc = sub.add_parser("scan", help="scan analysis anisotropies for the critical exponent")
    sc.add_argument("--in", dest="inputs", action="append", default=[],
                    help="ANIF field file (repeatable)")
    sc.add_argument("--spec", help="alpha0=..,hurst=..[,n=..,seed=..] for in-memory synthesis")
    sc.add_argument("--reps", type=int, default=8)
    sc.add_argument("--p", type=_parse_p, default=2.0)
    sc.add_argument("--alpha-grid", default="0.2:1.8:0.05")
    sc.add_argument("--out", required=True, help="output prefix (.csv and .json)")
    sc.set_defaults(func=cmd_scan)

    an = sub.add_parser("analyze", help="structure functions and directional exponents")
    an.add_argument("--in", dest="inputs", action="append", required=True)
    an.add_argument("--p", type=_parse_p, default=2.0)
    an.add_argument("--direction", action="append", help="u,v (repeatable)")
    an.add_argument("--out", required=True, help="output prefix (.csv and .json)")
    an.set_defaults(func=cmd_analyze)

    hw = sub.add_parser("hywave", help="hyperbolic wavelet statistics and ratio scan")
    hw.add_argument("--in", dest="input", required=True)
    hw.add_argument("--filter", choices=sorted(hywave.FILTERS), default="d4")
    hw.add_argument("--p", type=_parse_p, default=2.0)
    hw.add_argument("--levels", type=int, default=None)
    hw.add_argument("--out", required=True, help="output prefix")
    hw.set_defaults(func=cmd_hywave)

    st = sub.add_parser("selftest", help="run the fast built-in checks")
    st.add_argument("--quick", action="store_true", help="skip the tent check")
    st.set_defaults(func=cmd_selftest)
    return ap


# main parses with one parser per process: a build is ~30 add_argument calls,
# and parse_args leaves the parser as it was
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # numerical or internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
