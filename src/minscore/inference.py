"""Godambe information, standard errors, relative efficiency and fitting.

For an estimating equation built from per-series scores s(y_i, theta), the
variability J = E[s^2] and sensitivity K = E[ds/dtheta] combine into the
Godambe information G = K^2 / J, and the estimator's asymptotic standard
deviation is 1 / sqrt(nu * G).

Every estimator has one sd route.  The per-series kinds estimate J and K
from the observed series (:func:`godambe_empirical`), using the exact
per-series gradients and second derivatives of their objectives; a fit reads
them from the jets its minimization ends on.  The Wishart estimator's score
acts on the pooled statistic S = Y'Y rather than series by series; its J and
K are exact in closed form (:func:`~minscore.wishart.wishart_components`),
and J is rescaled by nu so the one sd formula applies to all four kinds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import canonical_model, sum_of_squares
from .optimize import MinimizationError, minimize_lanes
from .scores import (
    DegenerateDataError,
    EstimatorKind,
    SeriesObjective,
    _terms,
    ar1_pairwise_closed_form,
    min_series_length,
    objective_lanes,
    series_objective,
)
from .wishart import wishart_components, wishart_context

__all__ = [
    "GodambeComponents",
    "EstimateRecord",
    "SeriesReduction",
    "godambe_empirical",
    "are",
    "check_sample_size",
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
    reads S = Y'Y).  :meth:`keep_statistics` computes the families a study
    needs and then drops the series."""

    def __init__(self, series):
        y = np.atleast_2d(np.asarray(series, dtype=float))
        if not np.all(np.isfinite(y)):
            raise ValueError("series contain non-finite values (NaN or inf)")
        self.series = y
        self.shape = y.shape
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

    def closed_form(self) -> float:
        """The AR(1) pairwise estimate (:func:`ar1_pairwise_closed_form`)."""
        if "closed form" not in self._families:
            self._families["closed form"] = ar1_pairwise_closed_form(self.series)[0]
        return self._families["closed form"]

    def keep_statistics(self, kinds, model: str) -> None:
        """Compute every family that ``kinds`` read on ``model`` (and the AR(1)
        pairwise closed form), then drop the series.  If a family fails, the
        series are kept, and the failure is raised again when its kind reads
        it."""
        try:
            for kind in map(EstimatorKind, kinds):
                self.objective(kind, model)
                if _closed_form(kind, canonical_model(model)):
                    self.closed_form()
        except Exception:  # noqa: BLE001 - raised again by the reading kind
            return
        self.series = None


def retained_floats(kinds, model: str, nu: int, t_len: int) -> int:
    """Floats that a :class:`SeriesReduction` of ``nu`` series of length
    ``t_len`` keeps for ``kinds`` after dropping its series, closed form included."""
    model = canonical_model(model)
    kinds = set(map(EstimatorKind, kinds))
    total = sum(_closed_form(k, model) for k in kinds)
    for family in {_SHARED_STATS.get((model, k), k) for k in kinds}:
        width = _terms(family, model, t_len, 0.0)[0].shape[-1]
        total += width if family is EstimatorKind.HYV_WISHART else (nu + 1) * width
    return total


def _closed_form(kind: EstimatorKind, model: str) -> bool:
    return kind is EstimatorKind.PAIRWISE_ML and model == "ar1"


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
    j_hat, k_hat = np.mean(g * g), np.mean(h)
    if not _usable(j_hat, k_hat):
        raise DegenerateDataError(_DEGENERATE)
    return GodambeComponents(j_hat=float(j_hat), k_hat=float(k_hat),
                             g_hat=float(k_hat * k_hat / j_hat))


def _usable(j_hat, k_hat):
    # whether J is a sampling variance rather than numerically zero
    return np.isfinite(j_hat) & (j_hat > _DEGENERATE_RATIO * (k_hat * k_hat))


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
    at least 1 series, 2 when the sd is wanted, and for the Wishart estimate
    at least T + 2 series, T + 4 with its sd.  The message calls the length
    ``t_name``: ``T`` for data, ``t`` for a study configuration."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    need = min_series_length(kind, model)
    if t_len < need:
        wanted, got = ("series length", t_len) if t_name == "T" else (t_name, f"{t_name}={t_len}")
        return f"the {kind} estimator on {model} needs {wanted} >= {need}, got {got}"
    if compute_sd and nu < 2:
        return f"every sd needs nu >= 2 series; got nu={nu}"
    if nu < 1:
        return f"every estimate needs nu >= 1 series; got nu={nu}"
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
    nu, t_len = _reduction(series).shape
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
) -> EstimateRecord:
    """Fit one estimator to a (nu, T) series matrix.

    ``series`` may also be a :class:`SeriesReduction`, so
    that the fits of several estimators to one dataset check its values once
    and share the statistics they have in common.  This is the one-lane case
    of :func:`fit_lanes` and gives the same bits as a fit of the same series
    among others.  Data that :func:`check_sample_size` rejects (non-finite
    values, too few or too short series) fail before any minimization, and
    any other failure is raised as well.  ``are`` is filled when ``sd_mle``
    is supplied.
    """
    [record] = fit_lanes([_reduction(series)], kind, model, compute_sd=compute_sd)
    if isinstance(record, Exception):
        raise record
    if sd_mle is not None and record.sd is not None:
        record = dataclasses.replace(record, are=are(sd_mle, record.sd))
    return record


def fit_lanes(
    reductions: Sequence[SeriesReduction],
    kind: EstimatorKind,
    model: str,
    *,
    compute_sd: bool = True,
) -> list:
    """Fit one estimator to each of several datasets of one shape at once.

    Returns, per :class:`SeriesReduction`, its :class:`EstimateRecord` or the
    exception that fitting it raised; one dataset's failure does not touch the
    others, and no record depends on which datasets share the call.  The
    AR(1) pairwise estimate is the closed form; every other estimate
    minimizes the kind's :class:`~minscore.scores.SeriesObjective` over
    :data:`SEARCH_BOUNDS`, all datasets as lanes of one
    :func:`~minscore.optimize.minimize_lanes`.  Estimates within 4e-6 of a
    bound are flagged and get no sd.  The sd of a per-series kind is
    the empirical Godambe information from the per-series derivatives of the
    jets the minimization ends on; the Wishart kind uses its exact J and K
    (:func:`~minscore.wishart.wishart_components`), J scaled by nu.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    shapes = {r.shape for r in reductions}
    if len(shapes) > 1:
        raise ValueError("lanes need datasets of one shape (nu, T)")
    error = sample_size_error(kind, model, *shapes.pop(), compute_sd=compute_sd) if shapes else None
    if error is not None:
        return [ValueError(error) for _ in reductions]
    results: list = [None] * len(reductions)
    live, objectives, closed = [], [], []
    for i, reduction in enumerate(reductions):
        try:
            objectives.append(reduction.objective(kind, model))
            if _closed_form(kind, model):
                closed.append(reduction.closed_form())
            live.append(i)
        except Exception as exc:  # noqa: BLE001 - one dataset's failure
            results[i] = exc
    if not live:
        return results

    lanes = objective_lanes(objectives)
    lo, hi = SEARCH_BOUNDS
    if _closed_form(kind, model):
        # the closed-form estimates, with the jets there for their sds
        theta = np.array(closed)
        boundary = ~((lo < theta) & (theta < hi))
        coef = np.full((3, len(live), lanes.pooled.shape[1]), np.nan)
        const = np.full((3, len(live)), np.nan)
        if compute_sd and not boundary.all():
            coef[:, ~boundary], const[:, ~boundary] = lanes.terms(theta[~boundary], 2)
        failed = np.zeros(len(live), dtype=bool)
    else:
        found = minimize_lanes(lanes, lo, hi)
        theta, coef, const, failed = found.theta, found.coef, found.const, ~found.ok
        boundary = (theta <= lo + _EDGE_MARGIN) | (theta >= hi - _EDGE_MARGIN)

    need_sd = np.flatnonzero(~failed & ~boundary) if compute_sd else []
    nu, t_len = reductions[0].shape
    sds, errors = {}, {}
    if len(need_sd):
        if kind is EstimatorKind.HYV_WISHART:
            j_hat, k_hat = np.array([wishart_components(model, theta[j], nu, t_len)
                                     for j in need_sd]).T
            j_hat = nu * j_hat
        else:
            # the per-series derivatives from the jets at each estimate, a
            # (lanes, series) array whose rows do not depend on each other
            g, h = map(np.array, zip(*(objectives[j].jet_derivatives(coef[:, j], const[:, j])
                                       for j in need_sd)))
            j_hat, k_hat = np.mean(g * g, axis=-1), np.mean(h, axis=-1)
        usable = _usable(j_hat, k_hat)
        with np.errstate(divide="ignore", invalid="ignore"):
            sd = 1.0 / np.sqrt(nu * (k_hat * k_hat / j_hat))
        for n, j in enumerate(need_sd):
            if usable[n]:
                sds[j] = float(sd[n])
            else:
                errors[j] = DegenerateDataError(_DEGENERATE)
    for j, i in enumerate(live):
        if failed[j]:
            results[i] = MinimizationError("objective is non-finite at every grid seed")
        elif j in errors:
            results[i] = errors[j]
        else:
            results[i] = EstimateRecord(kind, float(theta[j]), sds.get(j), None,
                                        bool(boundary[j]))
    return results
