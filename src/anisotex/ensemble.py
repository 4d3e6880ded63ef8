"""Streamed ensemble reductions.

The estimators read a field's anisotropy from statistics that are computed
per realization and then averaged in realization order: the two axis
exponents behind the scan (``besov.axis_exponents``) and the per-block
moments behind the hyperbolic ridge's one block statistic
(``hywave.pooled_scale_statistics``). ``reduce_fields`` loads each
realization inside a task of the worker pool (``synth._pool_map``),
reduces it and drops it, so at most ``synth.worker_count()`` fields are
alive at once, whatever the ensemble size. It folds the reductions as
``scan_anisotropy`` and ``pooled_scale_statistics`` fold them for a
materialized ensemble, through the same helpers, so both give the same
results to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import besov, hywave, synth
from .core import FieldSpec, check_order


@dataclass(frozen=True)
class EnsembleReduction:
    """What an ensemble reduces to.

    ``exponents`` holds each realization's axis exponents (h1, h2), in
    realization order, and ``scan`` their anisotropy scan. ``stats`` holds
    the pooled block statistics of their pyramids, or None when no pyramid
    levels were asked for.
    """

    exponents: tuple
    scan: besov.ExponentScan
    stats: hywave.ScaleStats | None = None


def reduce_fields(load, items, alpha_grid, p, levels=None) -> EnsembleReduction:
    """Scan, and with ``levels`` pooled pyramid statistics, of the fields
    ``load(x)`` for x in ``items``.

    ``items`` are what a field is made from (file paths, specs), never
    fields: each pool task loads one, reduces it to its axis exponents
    and, given ``levels``, to the block moments of its d4 pyramid of
    depths ``levels``, and drops it. The fields must share a generative
    spec; the caller checks. An error raised in a task (a file that does
    not read, an order p whose moments leave the float64 range) propagates
    unchanged.
    """
    alphas = besov._scan_alphas(alpha_grid)
    check_order(p)
    if not items:
        raise ValueError("need at least one field")

    def reduce(item):
        field = load(item)
        hs = besov.axis_exponents(field, p)
        if levels is None:
            return hs, None, None
        pyr = hywave.hyperbolic_transform(field, filt="d4", levels=levels)
        return hs, (pyr.grid_n, pyr.levels, pyr.filter), hywave._block_moments(pyr, p)

    exponents, shapes, moments = zip(*synth._pool_map(reduce, items))
    stats = None if levels is None else hywave._pool_moments(shapes, moments, p)
    return EnsembleReduction(exponents=exponents, scan=besov.scan_exponents(exponents, alphas),
                             stats=stats)


def reduce_synthesis(spec: FieldSpec, reps: int, alpha_grid, p, levels=None) -> EnsembleReduction:
    """``reduce_fields`` over the realizations of ``synthesize_ensemble(spec,
    reps)``, each synthesized in its pool task."""
    besov._scan_alphas(alpha_grid)  # a bad grid fails before the amplitude grid is built
    return reduce_fields(synth.synthesize, synth.ensemble_specs(spec, reps), alpha_grid, p, levels)
