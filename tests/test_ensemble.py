"""The streamed ensemble reduction against the batch estimators."""
import math
import threading
import weakref

import pytest

from anisotex import (FieldSpec, directional_exponent, hyperbolic_transform, hywave,
                      pooled_scale_statistics, reduce_fields, reduce_synthesis, scan_anisotropy,
                      structure_function, synth, synthesize_ensemble)

GRID = [round(0.2 + 0.1 * k, 10) for k in range(17)]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("n", [128, 256])  # the default fit needs n >= 128
def test_matches_batch_path(n, p, workers, monkeypatch):
    spec = FieldSpec.make(0.6, 0.4, grid_n=n, seed=n + 17)
    levels = (int(math.log2(n)) - 1,) * 2
    fields = synthesize_ensemble(spec, 5)
    scan = scan_anisotropy(fields, GRID, p)
    stats = pooled_scale_statistics([hyperbolic_transform(f, filt="d4", levels=levels)
                                     for f in fields], p)
    # per-realization exponents: the default fit of the full axis tables
    hs = tuple(tuple(directional_exponent(structure_function(f, axis, p)).h
                     for axis in ((1, 0), (0, 1))) for f in fields)
    monkeypatch.setattr(synth, "worker_count", lambda: workers)
    run = reduce_synthesis(spec, 5, GRID, p, levels=levels)
    assert run.scan == scan
    assert run.stats.log2_stat == stats.log2_stat
    assert run.exponents == hs


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_at_most_worker_count_fields_alive(workers, monkeypatch):
    lock = threading.Lock()
    alive, most = [0], [0]

    def dropped():
        with lock:
            alive[0] -= 1

    def load(spec):
        field = synth.synthesize(spec)
        with lock:
            alive[0] += 1
            most[0] = max(most[0], alive[0])
        weakref.finalize(field, dropped)
        return field

    monkeypatch.setattr(synth, "worker_count", lambda: workers)
    spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=5)
    run = reduce_fields(load, synth.ensemble_specs(spec, 8), GRID, 2.0, levels=(6, 6))
    assert len(run.exponents) == 8
    assert 1 <= most[0] <= workers
    assert alive[0] == 0


def test_without_levels_no_pyramids(monkeypatch):
    monkeypatch.setattr(hywave, "hyperbolic_transform", lambda *a, **k: pytest.fail("pyramid built"))
    spec = FieldSpec.make(1.0, 0.5, grid_n=128, seed=2)
    run = reduce_synthesis(spec, 2, GRID, 2.0)
    assert run.stats is None
    assert run.scan == scan_anisotropy(synthesize_ensemble(spec, 2), GRID, 2.0)


def test_overflowing_order_names_p():
    spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=3)
    with pytest.raises(ValueError, match=r"order p=1000.0: .* overflows float64"):
        reduce_synthesis(spec, 3, GRID, 1000.0, levels=(6, 6))


def test_bad_grid_fails_before_synthesis(monkeypatch):
    monkeypatch.setattr(synth, "_quarter_amplitudes", lambda *a: pytest.fail("mass grid built"))
    spec = FieldSpec.make(0.6, 0.4, grid_n=128)
    with pytest.raises(ValueError, match="outside the resolvable scan range"):
        reduce_synthesis(spec, 2, [0.1, 0.5], 2.0)
    with pytest.raises(ValueError, match="empty alpha grid"):
        reduce_synthesis(spec, 2, [], 2.0)


def test_no_items_rejected():
    with pytest.raises(ValueError, match="need at least one field"):
        reduce_fields(lambda item: pytest.fail("loaded"), [], GRID, 2.0)
