"""Godambe information, standard errors, relative efficiency and fitting.

For an estimating equation built from per-series scores s(y_i, theta), the
variability J = E[s^2] and sensitivity K = E[ds/dtheta] combine into the
Godambe information G = K^2 / J, and the estimator's asymptotic standard
deviation is 1 / sqrt(nu * G).

Each estimator has one sd route.  The per-series kinds estimate J and K
from the observed series (:func:`godambe_empirical`), using the exact
per-series gradients and second derivatives of their objectives.  The Wishart
estimator's score acts on the pooled statistic S = Y'Y rather than series by
series; its raw gradient variance, exact in closed form
(:func:`godambe_analytic`), is rescaled by nu so the one sd formula applies
to all four kinds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .models import canonical_model, sum_of_squares
from .optimize import minimize_scalar
from .scores import (
    DegenerateDataError,
    EstimatorKind,
    SeriesObjective,
    ar1_pairwise_closed_form,
    min_series_length,
    series_objective,
)
from .wishart import SEARCH_BOUNDS, wishart_components, wishart_context

__all__ = [
    "GodambeComponents",
    "EstimateRecord",
    "SeriesReduction",
    "godambe_empirical",
    "godambe_analytic",
    "are",
    "check_sample_size",
    "sample_size_error",
    "fit",
]

# J below this fraction of K^2 means the per-series gradients all vanish at
# theta_hat, i.e. the data cannot identify a sampling variance.
_DEGENERATE_RATIO = 1e-8


@dataclass(frozen=True)
class GodambeComponents:
    """Scalar variability (j_hat), sensitivity (k_hat) and Godambe information
    (g_hat = k_hat^2 / j_hat), all per series."""

    j_hat: float
    k_hat: float
    g_hat: float

    def sd(self, nu: int) -> float:
        """Asymptotic standard deviation for nu independent series."""
        return 1.0 / np.sqrt(nu * self.g_hat)


@dataclass(frozen=True)
class EstimateRecord:
    """One fitted estimator: point estimate, asymptotic sd and efficiency
    relative to full maximum likelihood.  ``sd`` and ``are`` are None when not
    computed (boundary estimates are never given an sd)."""

    kind: EstimatorKind
    estimate: float
    sd: float | None
    are: float | None
    boundary_flag: bool


# kinds whose objectives read the statistics of another kind: AR(1) pairwise
# reads the first differences of full, MA(1) hyv the DST-I squares of full
_SHARED_STATS = {
    ("ar1", EstimatorKind.PAIRWISE_ML): EstimatorKind.FULL_ML,
    ("ma1", EstimatorKind.HYV_UNIVARIATE): EstimatorKind.FULL_ML,
}


class SeriesReduction:
    """A (nu, T) series matrix that several estimators fit: its values are
    checked to be finite once, and each family of sufficient statistics is
    computed when a kind first reads it, then shared by every kind of the
    family (AR(1) full and pairwise; MA(1) full and hyv; the Wishart kind
    reads S = Y'Y)."""

    def __init__(self, series):
        y = np.atleast_2d(np.asarray(series, dtype=float))
        if not np.all(np.isfinite(y)):
            raise ValueError("series contain non-finite values (NaN or inf)")
        self.series = y
        self._families: dict = {}

    def objective(self, kind: EstimatorKind, model: str) -> SeriesObjective:
        """The :class:`SeriesObjective` of ``kind`` on ``model``, equal to
        :func:`series_objective` of the series (or :func:`wishart_context` of
        S), from its family's statistics."""
        kind = EstimatorKind(kind)
        model = canonical_model(model)
        family = _SHARED_STATS.get((model, kind), kind)
        shared = self._families.get((model, family))
        if shared is None:
            if kind is EstimatorKind.HYV_WISHART:
                shared = wishart_context(sum_of_squares(self.series), len(self.series), model)
            else:
                shared = series_objective(self.series, family, model)
            self._families[model, family] = shared
        return shared if shared.kind is kind else dataclasses.replace(shared, kind=kind)


def godambe_empirical(
    series, kind: EstimatorKind, model: str, theta_hat: float
) -> GodambeComponents:
    """Empirical J and K: per-series squared gradients and second derivatives
    of the objective, averaged over the observed series at theta_hat.

    ``series`` is a (nu, T) matrix or its :class:`~minscore.scores.SeriesObjective`
    for this kind and model, so a fit that already reduced its series does
    not reduce them again.  Both derivatives are exact, from the series'
    sufficient statistics.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    if kind is EstimatorKind.HYV_WISHART:
        raise ValueError("empirical per-series estimation does not apply to the Wishart score")
    if isinstance(series, SeriesObjective):
        if (series.kind, series.model) != (kind, model):
            raise ValueError(
                f"objective is for {series.kind} on {series.model}, not {kind} on {model}"
            )
        objective = series
    else:
        objective = series_objective(np.atleast_2d(series), kind, model)
    if len(objective.stats) < 2:
        raise ValueError(f"need at least 2 series, got {len(objective.stats)}")
    g, h = objective.derivatives(theta_hat)
    j_hat = float(np.mean(g * g))
    k_hat = float(np.mean(h))
    if not np.isfinite(j_hat) or j_hat <= _DEGENERATE_RATIO * k_hat**2:
        raise DegenerateDataError(
            "score variability is numerically zero; data carry no sampling variance"
        )
    return GodambeComponents(j_hat=j_hat, k_hat=k_hat, g_hat=k_hat**2 / j_hat)


def godambe_analytic(model: str, theta_hat: float, *, t_len: int, nu: int) -> GodambeComponents:
    """Exact J and K of the Wishart score equation at theta_hat, no simulation.

    J is the exact inverse-Wishart variance of the pooled gradient
    (:func:`~minscore.wishart.wishart_variability`, needs nu >= T + 4) and K
    the deterministic sensitivity.  J is multiplied by nu so that
    ``sd = 1 / sqrt(nu * g_hat)`` holds for this estimator too.
    """
    model = canonical_model(model)
    j_total, k_total = wishart_components(model, theta_hat, nu, t_len)
    if j_total <= _DEGENERATE_RATIO * k_total**2:
        raise DegenerateDataError("Wishart score gradients are numerically zero")
    return GodambeComponents(
        j_hat=nu * j_total, k_hat=k_total, g_hat=k_total**2 / (nu * j_total)
    )


def are(sd_mle: float, sd_est: float) -> float:
    """Asymptotic relative efficiency (sd_mle / sd_est)**2."""
    if not (sd_mle > 0 and sd_est > 0):
        raise ValueError(f"standard deviations must be positive, got {sd_mle}, {sd_est}")
    return (sd_mle / sd_est) ** 2


def sample_size_error(
    kind: EstimatorKind, model: str, nu: int, t_len: int, *,
    compute_sd: bool = True, t_name: str = "T",
) -> str | None:
    """The first bound of :func:`fit` that ``nu`` series of length ``t_len``
    violate, or None; shape only.  Series no shorter than
    :func:`~minscore.scores.min_series_length` (T >= 2 for every estimator),
    at least 2 series when the sd is wanted, and for the Wishart estimate at
    least T + 2 series, T + 4 with its sd.  The message calls the length
    ``t_name``: ``T`` for data, ``t`` for a study configuration."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    need = min_series_length(kind, model)
    if t_len < need:
        wanted, got = ("series length", t_len) if t_name == "T" else (t_name, f"{t_name}={t_len}")
        return f"the {kind} estimator on {model} needs {wanted} >= {need}, got {got}"
    if compute_sd and nu < 2:
        return f"every sd needs nu >= 2 series; got nu={nu}"
    if kind is EstimatorKind.HYV_WISHART:
        extra = 4 if compute_sd else 2
        if nu < t_len + extra:
            what = "sd" if compute_sd else "score"
            return (f"the Wishart {what} needs nu >= {t_name} + {extra}; "
                    f"got nu={nu}, {t_name}={t_len}")
    return None


def check_sample_size(
    kind: EstimatorKind, model: str, series, *, compute_sd: bool = True
) -> None:
    """Raise ``ValueError`` unless :func:`fit` can fit the (nu, T) series
    matrix ``series`` (or its :class:`SeriesReduction`):
    finite values, and the bounds of :func:`sample_size_error`."""
    nu, t_len = _reduction(series).series.shape
    error = sample_size_error(kind, model, nu, t_len, compute_sd=compute_sd)
    if error is not None:
        raise ValueError(error)


def _reduction(series) -> SeriesReduction:
    return series if isinstance(series, SeriesReduction) else SeriesReduction(series)


def fit(
    series,
    kind: EstimatorKind,
    model: str,
    *,
    sd_mle: float | None = None,
    compute_sd: bool = True,
    bounds: tuple[float, float] = SEARCH_BOUNDS,
    tol: float = 1e-6,
) -> EstimateRecord:
    """Fit one estimator to a (nu, T) series matrix.

    ``series`` may also be a :class:`SeriesReduction`, so
    that the fits of several estimators to one dataset check its values once
    and share the statistics they have in common; the result is the same to
    the bit.  The AR(1) pairwise estimate is the closed form; every other
    estimate minimizes the kind's :class:`~minscore.scores.SeriesObjective`
    over ``bounds``, reducing the data once for both the estimate and its
    sd.  The sd of a per-series kind uses the empirical Godambe information
    (:func:`godambe_empirical`); the Wishart kind uses its
    exact information (:func:`godambe_analytic`).  Data that
    :func:`check_sample_size` rejects (non-finite values, too few or too short
    series) fail before any minimization.
    Estimates at the search boundary are flagged and get no sd.  ``are`` is
    filled when ``sd_mle`` is supplied.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    reduction = _reduction(series)
    check_sample_size(kind, model, reduction, compute_sd=compute_sd)
    y = reduction.series
    nu, t_len = y.shape

    objective = reduction.objective(kind, model)
    if kind is EstimatorKind.PAIRWISE_ML and model == "ar1":
        estimate, _ = ar1_pairwise_closed_form(y)
        boundary = not (bounds[0] < estimate < bounds[1])
    else:
        estimate = minimize_scalar(objective.total, bounds[0], bounds[1], tol=tol)
        boundary = _at_edge(estimate, bounds, tol)

    if boundary or not compute_sd:
        return EstimateRecord(kind, float(estimate), None, None, boundary)

    if kind is EstimatorKind.HYV_WISHART:
        comps = godambe_analytic(model, estimate, t_len=t_len, nu=nu)
    else:
        comps = godambe_empirical(objective, kind, model, estimate)
    sd = comps.sd(nu)
    rel_eff = are(sd_mle, sd) if sd_mle is not None else None
    return EstimateRecord(kind, float(estimate), float(sd), rel_eff, False)


def _at_edge(estimate: float, bounds: tuple[float, float], tol: float) -> bool:
    margin = 4.0 * tol
    return estimate <= bounds[0] + margin or estimate >= bounds[1] - margin
