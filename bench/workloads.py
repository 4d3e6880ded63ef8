"""The four benchmark workloads.

Each workload draws all of its inputs from the workload seed, sets up
(``setup``, timed ``SETUP_REPEATS`` times with identical work), then
serves ops from ``inputs()`` through ``run_op``, which checks the op's
outputs and wraps each call into an anisotex layer in a tracer span.
``cycle`` is the number of ops after which the inputs repeat in kind;
work counts are taken over the first cycle so that they repeat exactly.
See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

import numpy as np

from anisotex import besov, cli, fileio, homog, hywave, synth
from anisotex.core import FieldSpec, matrix_power

from harness import SETUP_REPEATS, NullTracer, OpResult

ALPHA0, HURST = 0.6, 0.4
ALPHA_GRID = [round(0.2 + 0.05 * i, 10) for i in range(33)]
SEED_LIMIT = 2 ** 62


def modes_per_realization(n):
    """Half-plane modes drawn per realization: ((n - 1)^2 - 1) / 2."""
    return ((n - 1) ** 2 - 1) // 2


def fft_bytes_per_realization(n):
    """Computed bytes of one complex128 ifft2: n x n read plus n x n written."""
    return 2 * 16 * n * n


def setup_hurst(i):
    """Set-up repeat i builds a distinct (cold) mass key; the last one is HURST."""
    return HURST - 1e-6 * (SETUP_REPEATS - 1 - i)


def tent_value(alpha, alpha0, hurst):
    """The predicted tent curve, written here so the check does not use besov's copy."""
    return hurst * min(alpha / alpha0, (2.0 - alpha) / (2.0 - alpha0))


class Workload:
    cycle = 1

    def __init__(self, rng, size, root):
        self.rng = rng
        self.mass_keys = set()

    def _new_mass_key(self, spec) -> bool:
        key = (spec.alpha0, spec.hurst, spec.grid_n)
        new = key not in self.mass_keys
        self.mass_keys.add(key)
        return new

    def _seed(self) -> int:
        return int(self.rng.integers(0, SEED_LIMIT))

    def close(self):
        pass


class Tent(Workload):
    """Acceptance criteria 1 and 6 on a fresh seed block per op."""

    name = "tent_1024"

    def __init__(self, rng, size, root):
        super().__init__(rng, size, root)
        self.n = 1024 if size == "full" else 128
        self.reps = 16
        depth = int(math.log2(self.n)) - 1
        self.levels = (depth, depth)

    def setup(self, i):
        spec = FieldSpec.make(ALPHA0, setup_hurst(i), grid_n=self.n)
        synth.spectral_grid(spec)
        self._new_mass_key(spec)

    def inputs(self):
        base = self._seed()
        k = 0
        while True:
            yield base + self.reps * k
            k += 1

    def run_op(self, seed, tr):
        spec = FieldSpec.make(ALPHA0, HURST, grid_n=self.n, seed=seed)
        new = self._new_mass_key(spec)
        with tr.span("synth.synthesize_ensemble"):
            fields = synth.synthesize_ensemble(spec, self.reps)
        with tr.span("besov.scan_anisotropy"):
            scan = besov.scan_anisotropy(fields, ALPHA_GRID, 2.0)
        pyrs = []
        for f in fields:
            with tr.span("hywave.hyperbolic_transform"):
                pyrs.append(hywave.hyperbolic_transform(f, filt="d4", levels=self.levels))
        with tr.span("hywave.pooled_scale_statistics"):
            stats = hywave.pooled_scale_statistics(pyrs, 2.0)
        with tr.span("hywave.ratio_maximize"):
            rscan = hywave.ratio_maximize(stats)
        with tr.span("hywave.inverse_hyperbolic_transform"):
            rec = hywave.inverse_hyperbolic_transform(pyrs[0])

        rms = math.sqrt(np.mean([(e - tent_value(a, ALPHA0, HURST)) ** 2
                                 for a, e in zip(scan.alphas, scan.exponents)
                                 if 0.3 <= a <= 1.7]))
        acc = {
            "tent_argmax_err": abs(scan.argmax_alpha - ALPHA0),
            "tent_peak_err": abs(scan.peak - HURST),
            "tent_rms": rms,
            "ridge_ratio_err": abs(rscan.best_ratio - ALPHA0 / (2.0 - ALPHA0)),
        }
        acc["tent_rec_err"] = float(np.max(np.abs(rec - fields[0].values)))
        literal = (acc["tent_argmax_err"] <= 0.1 and acc["tent_peak_err"] <= 0.05
                   and rms <= 0.07 and acc["ridge_ratio_err"] <= 0.15
                   and abs(rscan.implied_alpha0 - scan.argmax_alpha) <= 0.12)
        # Criteria 1 and 6 hold at the acceptance seed; on other seeds the
        # peak, biased low by ~0.03, misses 0.05 on about one op in ten.
        # So the peak may also sit within three of its standard errors of
        # the tolerance, and the argmax may sit further out when the scan
        # cannot tell it from alpha0 at three standard errors.
        ip = scan.alphas.index(scan.argmax_alpha)
        i0 = int(np.argmin(np.abs(np.asarray(scan.alphas) - ALPHA0)))
        se = scan.stderrs
        peak_ok = acc["tent_peak_err"] <= 0.05 + 3.0 * se[ip]
        argmax_ok = (acc["tent_argmax_err"] <= 0.1
                     or scan.peak - scan.exponents[i0] <= 3.0 * math.hypot(se[ip], se[i0]))
        ok = (peak_ok and argmax_ok and rms <= 0.07 and acc["ridge_ratio_err"] <= 0.15
              and abs(rscan.implied_alpha0 - scan.argmax_alpha) <= 0.12
              and acc["tent_rec_err"] < 1e-9)
        acc["tent_over_tol"] = int(not literal)
        counts = {
            "synth.modes_drawn": self.reps * modes_per_realization(self.n),
            "synth.fft_bytes": self.reps * fft_bytes_per_realization(self.n),
            "hywave.coefficients": sum(
                p.approx.size + sum(b.size for b in p.detail.values())
                + sum(b.size for b in p.detail_approx.values())
                + sum(b.size for b in p.approx_detail.values()) for p in pyrs),
        }
        return OpResult(ok=ok, counts=counts, accuracy=acc, mass_key_new=new)


class SpecSweep(Workload):
    """A new (alpha0, H) per op, so every op builds its mass grid cold."""

    name = "spec_sweep_256"

    def __init__(self, rng, size, root):
        super().__init__(rng, size, root)
        self.n = 256 if size == "full" else 128
        self.reps = 4

    def _draw(self):
        alpha0 = float(self.rng.uniform(0.4, 1.6))
        hurst = float(self.rng.uniform(0.2, 0.8 * min(alpha0, 2.0 - alpha0)))
        spec = FieldSpec.make(alpha0, hurst, grid_n=self.n, seed=self._seed())
        if not self._new_mass_key(spec):
            raise RuntimeError(f"mass key repeated: {(alpha0, hurst, self.n)}")
        return spec

    def setup(self, i):
        self.run_op(self._draw(), NullTracer())

    def inputs(self):
        while True:
            yield self._draw()

    def run_op(self, spec, tr):
        rho = homog.rho_power_sum(spec.alpha0)
        with tr.span("homog.check_homogeneity"):
            hom = homog.check_homogeneity(rho, trials=1000, seed=spec.seed)
        with tr.span("homog.check_integrability"):
            integ = homog.check_integrability(rho, spec.hurst)
        with tr.span("synth.spectral_grid"):
            synth.spectral_grid(spec)
        with tr.span("synth.synthesize_ensemble"):
            fields = synth.synthesize_ensemble(spec, self.reps)
        with tr.span("besov.scan_anisotropy"):
            scan = besov.scan_anisotropy(fields, ALPHA_GRID, 2.0)
        finite = bool(np.all(np.isfinite(scan.exponents)) and np.all(np.isfinite(scan.stderrs))
                      and math.isfinite(scan.peak) and math.isfinite(scan.argmax_alpha))
        ok = finite and integ.finite and hom.max_relative_error <= 1e-10
        counts = {
            "synth.modes_drawn": self.reps * modes_per_realization(self.n),
            "synth.fft_bytes": self.reps * fft_bytes_per_realization(self.n),
        }
        # every op's key is new by construction (_draw raises on a repeat)
        return OpResult(ok=ok, counts=counts, mass_key_new=True)


class ScalingCheck(Workload):
    """Acceptance criterion 3, one scaling probe (a, x) per op."""

    name = "scaling_check_256"

    def __init__(self, rng, size, root):
        super().__init__(rng, size, root)
        quad = [("quad", a, x) for a in (0.5, 2.0, 4.0) for x in ((0.25, 0.25), (0.1, 0.3))]
        mc = [("mc", 2.0, (0.2, 0.1)), ("mc", 4.0, (0.08, 0.03)), ("mc", 0.5, (0.2, 0.2))]
        if size == "full":
            self.n, self.reps = 256, 200
            # acceptance order, two quadrature probes to each Monte Carlo probe
            self.probes = [p for k in range(3) for p in (quad[2 * k], quad[2 * k + 1], mc[k])]
        else:
            self.n, self.reps = 128, 50
            self.probes = [quad[2], mc[0]]
        self.cycle = len(self.probes)
        self.spec = FieldSpec.make(ALPHA0, HURST, grid_n=self.n)

    def setup(self, i):
        spec = FieldSpec.make(ALPHA0, setup_hurst(i), grid_n=self.n)
        synth.spectral_grid(spec)
        self._new_mass_key(spec)
        synth.variogram_oracle(spec, (0.25, 0.25))

    def inputs(self):
        k = 0
        while True:
            kind, a, x = self.probes[k % self.cycle]
            yield kind, a, x, self._seed() if kind == "mc" else None
            k += 1

    def run_op(self, probe, tr):
        kind, a, x, seed = probe
        target = a ** (2.0 * HURST)
        if kind == "quad":
            y = matrix_power(self.spec.anisotropy, a) @ np.asarray(x)
            with tr.span("synth.variogram_oracle"):
                lhs = synth.variogram_oracle(self.spec, y)
            with tr.span("synth.variogram_oracle"):
                rhs = target * synth.variogram_oracle(self.spec, x)
            rel = abs(lhs - rhs) / rhs
            return OpResult(ok=rel <= 1e-3, accuracy={"scaling_quad_err": rel})

        spec = self.spec.with_seed(seed)
        new = self._new_mass_key(spec)
        with tr.span("synth.monte_carlo_scaling_check"):
            res = synth.monte_carlo_scaling_check(spec, a, x, self.reps)
        err = abs(res.ratio / res.target - 1.0)
        # Criterion 3 allows 10%, which holds at the acceptance seed; on
        # other seeds about one probe in twelve misses it through estimator
        # noise alone. So the ratio may also sit within three of its own
        # standard errors (95% half-width / 1.96) of the tolerance.
        ok = abs(res.ratio - res.target) <= 0.10 * res.target + 3.0 * res.ci_halfwidth / 1.96
        counts = {"synth.modes_drawn": self.reps * modes_per_realization(self.n)}
        return OpResult(ok=ok, counts=counts, mass_key_new=new,
                        accuracy={"scaling_mc_err": err, "scaling_mc_over_tol": int(err > 0.10)})


def _field_digest(field):
    s = field.spec
    h = hashlib.sha256(repr((s.alpha0, s.hurst, s.rho, s.grid_n, s.seed)).encode())
    h.update(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    return h.hexdigest()


class CliFiles(Workload):
    """The CLI in-process: write ANIF files, analyse them, read them back."""

    name = "cli_files_512"

    def __init__(self, rng, size, root):
        super().__init__(rng, size, root)
        self.n = 512 if size == "full" else 128
        count = 8 if size == "full" else 2
        # ten-digit seeds keep the ANIF header, and so the file size, fixed
        self.seeds = [int(s) for s in rng.integers(10 ** 9, 10 ** 10, size=count)]
        self.workdir = os.path.join(root, ".bench_work", f"cli-{os.getpid()}")
        self.paths = [os.path.join(self.workdir, f"field{i}.anif") for i in range(count)]
        self.digests = []

    def setup(self, i):
        specs = [FieldSpec.make(ALPHA0, setup_hurst(i), grid_n=self.n, seed=s)
                 for s in self.seeds]
        synth.spectral_grid(specs[0])
        self._new_mass_key(specs[0])
        self.digests = [_field_digest(synth.synthesize(s)) for s in specs]

    def inputs(self):
        while True:
            yield None

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return cli.main(argv)

    def run_op(self, _, tr):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        spec = FieldSpec.make(ALPHA0, HURST, grid_n=self.n)
        new = self._new_mass_key(spec)
        codes = []
        for seed, path in zip(self.seeds, self.paths):
            with tr.span("cli.simulate"):
                codes.append(self._cli(["simulate", "--alpha0", str(ALPHA0), "--hurst", str(HURST),
                                        "--size", str(self.n), "--seed", str(seed),
                                        "--out", path]))
        ins = [arg for p in self.paths for arg in ("--in", p)]
        out = os.path.join(self.workdir, "out")
        with tr.span("cli.scan"):
            codes.append(self._cli(["scan", *ins, "--out", out + "_scan"]))
        with tr.span("cli.analyze"):
            codes.append(self._cli(["analyze", "--in", self.paths[0], "--out", out + "_analyze"]))
        with tr.span("cli.hywave"):
            codes.append(self._cli(["hywave", "--in", self.paths[0], "--out", out + "_hywave"]))
        same = True
        for path, digest in zip(self.paths, self.digests):
            with tr.span("fileio.read_field"):
                field = fileio.read_field(path)
            same &= _field_digest(field) == digest

        sizes = [os.path.getsize(p) for p in self.paths]
        k = len(self.paths)
        counts = {
            "synth.modes_drawn": k * modes_per_realization(self.n),
            "synth.fft_bytes": k * fft_bytes_per_realization(self.n),
            "hywave.coefficients": self.n * self.n,
            "fileio.bytes_written": sum(sizes),
            # scan reads every file, analyze and hywave the first, the check every file
            "fileio.bytes_read": 2 * sum(sizes) + 2 * sizes[0],
        }
        ok = all(c == 0 for c in codes) and same
        return OpResult(ok=ok, counts=counts, mass_key_new=new)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))


WORKLOADS = {w.name: w for w in (Tent, SpecSweep, ScalingCheck, CliFiles)}
