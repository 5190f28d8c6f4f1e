"""Godambe information, standard errors, relative efficiency and fitting.

For an estimating equation built from per-series scores s(y_i, theta), the
variability J = E[s^2] and sensitivity K = E[ds/dtheta] combine into the
Godambe information G = K^2 / J, and the estimator's asymptotic standard
deviation is 1 / sqrt(nu * G).

Every estimator has one fitting route and one sd route.  Every estimate
minimizes its kind's objective (:func:`~minscore.scores.series_objective`,
for all four kinds) in theta, the only parameter (mean 0 and unit
innovation variance are known), so the sd is that of the estimate it is
reported with.  The per-series kinds estimate J and K from the observed
series, using the exact per-series gradients and second derivatives of their
objectives, which a fit reads from the jets at its estimates, evaluated for
all of its datasets in one call.  Each per-series derivative is linear in
the series' m statistics, so K, the mean second derivative, is read from
their pooled sums for every fit, and J, the mean squared gradient, is a
quadratic form in their m x m second moments; a reduction of more series
than statistics keeps those moments instead of the per-series statistics.
The Wishart estimator's score acts on the pooled statistic S = Y'Y rather
than series by series; its J and K are exact in closed form
(:func:`~minscore.wishart.wishart_components`), and J is rescaled by nu so
the one sd formula applies to all four kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .models import _check_size, canonical_model
from .optimize import GRID_POINTS, MinimizationError, minimize_lanes
from .scores import (
    DegenerateDataError,
    EstimatorKind,
    SeriesObjective,
    _objective,
    _real_series,
    _reducer,
    min_series_length,
    objective_lanes,
)
from .wishart import wishart_components

__all__ = [
    "EstimateRecord",
    "SeriesReduction",
    "are",
    "sample_size_error",
    "fit",
    "fit_lanes",
]

# the open interval of the dependence parameter that every fit searches
SEARCH_BOUNDS = (-0.999, 0.999)
# J below this fraction of K^2 means the per-series gradients all vanish at
# theta_hat, i.e. the data cannot identify a sampling variance.
_DEGENERATE_RATIO = 1e-8
_DEGENERATE = "score variability is numerically zero; data carry no sampling variance"
# an estimate this close to a search bound is flagged as a boundary hit
_EDGE_MARGIN = 4e-6
# floats per statistic that the jets of a fit and their products hold per
# lane: the tracemalloc slope of fit_lanes over 40 vs 160 lanes, less the grid
# values and the moments or the rows' derivatives, is at most 16.4 (MA(1)
# hyv-wishart, T = 50; MA(1) pairwise 15.9, every other kind 2-15).  Not
# lowered to 20: the MA(1) acceptance blocks would grow from 165 to 170
# replicates and the study's traced peak by 0.23 MB, with no time saved
_JET_FLOATS = 24


@dataclass(frozen=True)
class EstimateRecord:
    """One fitted estimator: point estimate and asymptotic sd (None for a
    boundary estimate, which is never given an sd)."""

    kind: EstimatorKind
    estimate: float
    sd: float | None
    boundary_flag: bool


class SeriesReduction:
    """The sufficient statistics of a (nu, T) series matrix for the estimators
    ``kinds`` on ``model``, computed at construction; the series are not kept.
    They are read as real floats in C order, so every memory layout of the same
    values gives the same bits (complex input is rejected).  The values are
    checked to be finite, then the shape against the bounds of
    :func:`sample_size_error` for each kind in turn.  Each family of
    statistics is computed once, by the reducer its kinds name, and shared by
    every kind of the family (AR(1) full and pairwise; MA(1) full and hyv),
    so a family that fails (a singular S) fails here.  Of a
    family's m statistics per row it keeps the pooled sums, the row count and
    whichever holds fewer floats: the rows, or their m x m second moments
    when there are more rows than m, which is all a fit reads.
    ``floats`` counts the floats of statistics it keeps, and ``fit_floats``
    bounds those a fit of one of its kinds holds per lane besides: the grid
    values, the stacked moments or the rows' derivatives, and the jets."""

    def __init__(self, series, kinds, model: str):
        y = np.atleast_2d(_real_series(series))
        if not np.all(np.isfinite(y)):
            raise ValueError("series contain non-finite values (NaN or inf)")
        kinds = [EstimatorKind(kind) for kind in kinds]
        if not kinds:
            raise ValueError("a reduction needs at least one estimator kind; kinds is empty")
        self.shape = y.shape
        self.model = canonical_model(model)
        for kind in kinds:
            error = sample_size_error(kind, self.model, *self.shape)
            if error is not None:
                raise ValueError(error)
        families: dict = {}
        self._objectives: dict = {}
        for kind in kinds:
            reduce = _reducer(kind, self.model)
            if reduce not in families:
                o = _objective(kind, self.model, self.shape[1], reduce(y))
                families[reduce] = o if o.rows <= o.pooled.size else replace(
                    o, stats=None, moments=o.stats.T @ o.stats)
            self._objectives[kind] = replace(families[reduce], kind=kind)
        # the floats of statistics kept, each buffer once (a one-row family,
        # the Wishart kind's, keeps its row as its pooled row)
        self.floats = sum(o.pooled.size + (o.moments.size if o.stats is None
                                           else 0 if np.shares_memory(o.stats, o.pooled)
                                           else o.stats.size) for o in families.values())
        self.fit_floats = max(GRID_POINTS + _JET_FLOATS * o.pooled.size
                              + (o.moments.size if o.stats is None else 4 * o.rows)
                              for o in families.values())

    def objective(self, kind: EstimatorKind) -> SeriesObjective:
        """The :class:`SeriesObjective` of ``kind``, equal to
        :func:`series_objective` of the series, from its family's statistics."""
        kind = EstimatorKind(kind)
        if kind not in self._objectives:
            held = ", ".join(k.value for k in self._objectives)
            raise ValueError(f"the reduction was built for {held}, not {kind}")
        return self._objectives[kind]


def are(sd_mle: float, sd_est: float) -> float:
    """Asymptotic relative efficiency (sd_mle / sd_est)**2."""
    if not (sd_mle > 0 and sd_est > 0):
        raise ValueError(f"standard deviations must be positive, got {sd_mle}, {sd_est}")
    return (sd_mle / sd_est) ** 2


def sample_size_error(
    kind: EstimatorKind, model: str, nu: int, t_len: int, *, t_name: str = "T",
) -> str | None:
    """The first bound of :func:`fit` that ``nu`` series of length ``t_len``
    violate, or None; shape only.  Series no shorter than
    :func:`~minscore.scores.min_series_length` (T >= 2 for every estimator),
    at least 2 series for the sd, and for the Wishart sd at least T + 4.
    The message calls the length ``t_name``: ``T`` for data, ``t`` for a
    study configuration.  Non-integral or negative sizes raise ValueError."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    nu, t_len = _check_size(nu, 0, "nu"), _check_size(t_len, 0)
    need = min_series_length(kind, model)
    if t_len < need:
        wanted, got = ("series length", t_len) if t_name == "T" else (t_name, f"{t_name}={t_len}")
        return f"the {kind} estimator on {model} needs {wanted} >= {need}, got {got}"
    if nu < 2:
        return f"every sd needs nu >= 2 series; got nu={nu}"
    if kind is EstimatorKind.HYV_WISHART and nu < t_len + 4:
        return f"the Wishart sd needs nu >= {t_name} + 4; got nu={nu}, {t_name}={t_len}"
    return None


def fit(series, kind: EstimatorKind, model: str) -> EstimateRecord:
    """Fit one estimator to a (nu, T) series matrix.

    ``series`` may also be a :class:`SeriesReduction` of ``model`` that holds
    ``kind``, so that the fits of several estimators to one dataset check its
    values once and share the statistics they have in common.  This is the
    one-lane case of :func:`fit_lanes` and gives the same bits as a fit of the
    same series among others.  Non-finite values and the bounds of
    :func:`sample_size_error` (too few or too short series) fail when the
    series are reduced, before any minimization, and any other failure is
    raised as well.
    """
    if isinstance(series, SeriesReduction):
        reduction = series
        if reduction.model != canonical_model(model):
            raise ValueError(f"the reduction is of {reduction.model}, not {model}")
    else:
        reduction = SeriesReduction(series, [kind], model)
    [record] = fit_lanes([reduction], kind)
    if isinstance(record, Exception):
        raise record
    return record


def fit_lanes(reductions: Sequence[SeriesReduction], kind: EstimatorKind) -> list:
    """Fit one estimator to each of several datasets of one shape and model
    at once.

    Returns, per :class:`SeriesReduction`, its :class:`EstimateRecord` or the
    exception that fitting it raised; one dataset's failure does not touch the
    others, and no record depends on which datasets share the call.  Every
    estimate, of every kind and model, minimizes the kind's
    :class:`~minscore.scores.SeriesObjective` (theta its only parameter) over
    :data:`SEARCH_BOUNDS`, all datasets as lanes of one
    :func:`~minscore.optimize.minimize_lanes`.  Estimates within 4e-6 of a
    bound are flagged and get no sd.  The sd of a per-series kind is
    the empirical Godambe information from the per-series derivatives of the
    jets at the estimates, K from the pooled statistics; the Wishart kind
    uses its exact J and K (:func:`~minscore.wishart.wishart_components`), J
    scaled by nu.
    """
    kind = EstimatorKind(kind)
    if not reductions:
        return []
    shapes = {r.shape for r in reductions}
    if len(shapes) > 1:
        raise ValueError("lanes need datasets of one shape (nu, T)")
    (nu, t_len), model = shapes.pop(), reductions[0].model
    objectives = [r.objective(kind) for r in reductions]

    lo, hi = SEARCH_BOUNDS
    lanes = objective_lanes(objectives)  # raises for reductions of two models
    theta = minimize_lanes(lanes, lo, hi)
    failed = np.isnan(theta)
    boundary = (theta <= lo + _EDGE_MARGIN) | (theta >= hi - _EDGE_MARGIN)

    sd = np.full(len(theta), np.nan)
    degenerate = np.zeros(len(theta), dtype=bool)
    need_sd = np.flatnonzero(~failed & ~boundary)
    if len(need_sd):
        if kind is EstimatorKind.HYV_WISHART:
            j_hat, k_hat = wishart_components(model, theta[need_sd], nu, t_len)
            j_hat = nu * j_hat
        else:
            # the jets at every estimate in one call; row i of a lane has
            # g_i = s_i . c1 + k1 and h_i = s_i . c2 + k2, so K = mean h_i is
            # read from the pooled sums, and J = mean g_i^2 from the rows or,
            # where the lanes keep second moments G (one shape, so all or
            # none), as (c1' G c1 + 2 k1 (pooled . c1) + rows k1^2) / rows;
            # every lane is products summed along fixed axes
            (_, c1, c2), (_, k1, k2) = lanes.terms(theta[need_sd], 2)
            kept = [objectives[j] for j in need_sd]
            pooled, rows = lanes.pooled[need_sd], lanes.rows[need_sd]
            if kept[0].stats is None:
                gc = np.stack([o.moments for o in kept])
                gc *= c1[:, None, :]
                j_hat = (np.sum(np.sum(gc, axis=-1) * c1, axis=-1)
                         + 2.0 * k1 * np.sum(pooled * c1, axis=-1) + rows * k1 * k1) / rows
            else:
                g = np.array([o.stats @ c1[n] + k1[n] for n, o in enumerate(kept)])
                j_hat = np.mean(g * g, axis=-1)
            k_hat = (np.sum(pooled * c2, axis=-1) + rows * k2) / rows
        # J is no sampling variance where it is numerically zero
        degenerate[need_sd] = ~(np.isfinite(j_hat) & (j_hat > _DEGENERATE_RATIO * (k_hat * k_hat)))
        with np.errstate(divide="ignore", invalid="ignore"):
            sd[need_sd] = 1.0 / np.sqrt(nu * (k_hat * k_hat / j_hat))
    results: list = []
    for j, estimate in enumerate(theta):
        if failed[j]:
            results.append(MinimizationError("objective is non-finite at every grid seed"))
        elif degenerate[j]:
            results.append(DegenerateDataError(_DEGENERATE))
        else:
            results.append(EstimateRecord(kind, float(estimate),
                                          None if boundary[j] else float(sd[j]),
                                          bool(boundary[j])))
    return results
