"""Godambe information, standard errors, relative efficiency and fitting.

For an estimating equation built from per-series scores s(y_i, theta), the
variability J = E[s^2] and sensitivity K = E[ds/dtheta] combine into the
Godambe information G = K^2 / J, and the estimator's asymptotic standard
deviation is 1 / sqrt(nu * G).

The Wishart estimator's score acts on the pooled statistic S = Y'Y rather
than series by series; its raw gradient variance, exact in closed form (see
:func:`godambe_analytic`), is rescaled by nu so the one sd formula applies to
all four kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import canonical_model, sample_series
from .optimize import num_grad, num_hess, minimize_scalar
from .scores import (
    DegenerateDataError,
    EstimatorKind,
    ar1_pairwise_closed_form,
    min_series_length,
    score_per_series,
)
from .wishart import (
    SEARCH_BOUNDS,
    hw_estimate,
    hw_grad_samples,
    wishart_sensitivity,
    wishart_variability,
)

__all__ = [
    "InfoMethod",
    "GodambeComponents",
    "EstimateRecord",
    "godambe_empirical",
    "godambe_montecarlo",
    "godambe_analytic",
    "fisher_information",
    "are",
    "fit",
]

# J below this fraction of K^2 means the per-series gradients all vanish at
# theta_hat, i.e. the data cannot identify a sampling variance.
_DEGENERATE_RATIO = 1e-8


class InfoMethod(Enum):
    EMPIRICAL = "empirical"
    MONTE_CARLO = "montecarlo"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class GodambeComponents:
    """Scalar variability (j_hat), sensitivity (k_hat) and Godambe information
    (g_hat = k_hat^2 / j_hat), all per series."""

    j_hat: float
    k_hat: float
    g_hat: float
    method: InfoMethod

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


def _components(g: np.ndarray, h: np.ndarray, method: InfoMethod) -> GodambeComponents:
    j_hat = float(np.mean(g * g))
    k_hat = float(np.mean(h))
    if not np.isfinite(j_hat) or j_hat <= _DEGENERATE_RATIO * k_hat**2:
        raise DegenerateDataError(
            "score variability is numerically zero; data carry no sampling variance"
        )
    return GodambeComponents(j_hat=j_hat, k_hat=k_hat, g_hat=k_hat**2 / j_hat, method=method)


def _wishart_components(
    j_total: float, k_total: float, nu: int, method: InfoMethod
) -> GodambeComponents:
    # J of the pooled gradient is multiplied by nu so that
    # sd = 1 / sqrt(nu * g_hat) holds for the Wishart estimator too
    if j_total <= _DEGENERATE_RATIO * k_total**2:
        raise DegenerateDataError("Wishart score gradients are numerically zero")
    return GodambeComponents(
        j_hat=nu * j_total,
        k_hat=k_total,
        g_hat=k_total**2 / (nu * j_total),
        method=method,
    )


def godambe_empirical(
    series, kind: EstimatorKind, model: str, theta_hat: float
) -> GodambeComponents:
    """Empirical J and K: per-series squared gradients and second derivatives
    of the objective, averaged over the observed series at theta_hat."""
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.HYV_WISHART:
        raise ValueError("empirical per-series estimation does not apply to the Wishart score")
    y = np.atleast_2d(np.asarray(series, dtype=float))
    if y.shape[0] < 2:
        raise ValueError(f"need at least 2 series, got {y.shape[0]}")

    def per_series(theta: float) -> np.ndarray:
        return score_per_series(y, kind, model, theta)

    g = num_grad(per_series, theta_hat)
    h = num_hess(per_series, theta_hat)
    return _components(g, h, InfoMethod.EMPIRICAL)


def godambe_montecarlo(
    model: str,
    theta_hat: float,
    kind: EstimatorKind,
    n_draws: int,
    seed,
    *,
    t_len: int,
    nu: int | None = None,
) -> GodambeComponents:
    """Monte Carlo J and K from fresh data simulated at theta_hat.

    Per-series kinds draw ``n_draws`` independent series of length ``t_len``.
    For the Wishart kind each draw is a whole nu-series sum-of-squares matrix
    (``nu`` required): J is the mean squared score gradient over draws, K is
    the deterministic sensitivity, and J is multiplied by nu so that
    ``sd = 1 / sqrt(nu * g_hat)`` holds for this estimator too.  Fitting uses
    :func:`godambe_analytic` for that kind; the Wishart draws here are its
    reference.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    if n_draws < 50:
        raise ValueError(f"need at least 50 Monte Carlo draws, got {n_draws}")
    if kind is EstimatorKind.HYV_WISHART:
        if nu is None:
            raise ValueError("the Wishart kind needs nu (series per draw)")
        grads = hw_grad_samples(model, theta_hat, nu, t_len, n_draws, seed)
        return _wishart_components(
            float(np.mean(grads * grads)),
            wishart_sensitivity(model, theta_hat, t_len),
            nu,
            InfoMethod.MONTE_CARLO,
        )
    draws = sample_series(model, theta_hat, n_draws, t_len, seed)

    def per_series(theta: float) -> np.ndarray:
        return score_per_series(draws, kind, model, theta)

    g = num_grad(per_series, theta_hat)
    h = num_hess(per_series, theta_hat)
    return _components(g, h, InfoMethod.MONTE_CARLO)


def godambe_analytic(model: str, theta_hat: float, *, t_len: int, nu: int) -> GodambeComponents:
    """Exact J and K of the Wishart score equation at theta_hat, no simulation.

    J is the exact inverse-Wishart variance of the pooled gradient
    (:func:`~minscore.wishart.wishart_variability`, needs nu >= T + 4) and K
    the deterministic sensitivity; J is scaled by nu as in
    :func:`godambe_montecarlo`.
    """
    model = canonical_model(model)
    return _wishart_components(
        wishart_variability(model, theta_hat, nu, t_len),
        wishart_sensitivity(model, theta_hat, t_len),
        nu,
        InfoMethod.ANALYTIC,
    )


def fisher_information(
    model: str,
    theta0: float,
    method: InfoMethod = InfoMethod.EMPIRICAL,
    *,
    t_len: int,
    n_draws: int = 2000,
    seed=0,
) -> float:
    """Per-series Fisher information of the scalar dependence parameter.

    Computed as the Godambe information of the log-score, for which J = K = I.
    Both methods simulate at theta0; they differ only in which Godambe
    estimator consumes the draws.
    """
    method = InfoMethod(method)
    if method is InfoMethod.EMPIRICAL:
        y = sample_series(model, theta0, n_draws, t_len, seed)
        return godambe_empirical(y, EstimatorKind.FULL_ML, model, theta0).g_hat
    if method is InfoMethod.MONTE_CARLO:
        return godambe_montecarlo(
            model, theta0, EstimatorKind.FULL_ML, n_draws, seed, t_len=t_len
        ).g_hat
    raise ValueError("fisher_information supports the empirical and Monte Carlo methods")


def are(sd_mle: float, sd_est: float) -> float:
    """Asymptotic relative efficiency (sd_mle / sd_est)**2."""
    if not (sd_mle > 0 and sd_est > 0):
        raise ValueError(f"standard deviations must be positive, got {sd_mle}, {sd_est}")
    return (sd_mle / sd_est) ** 2


def _sd_method(kind: EstimatorKind, info_method: InfoMethod | None) -> InfoMethod:
    # the Wishart sd is exact; the per-series kinds estimate theirs from data
    # (empirical) or from draws at the estimate (Monte Carlo)
    if kind is EstimatorKind.HYV_WISHART:
        allowed = (InfoMethod.ANALYTIC,)
    else:
        allowed = (InfoMethod.EMPIRICAL, InfoMethod.MONTE_CARLO)
    method = allowed[0] if info_method is None else InfoMethod(info_method)
    if method not in allowed:
        raise ValueError(f"the {kind} sd does not support the {method.value} method")
    return method


def fit(
    series,
    kind: EstimatorKind,
    model: str,
    *,
    sd_mle: float | None = None,
    compute_sd: bool = True,
    info_method: InfoMethod | None = None,
    mc_draws: int = 500,
    seed=0,
    bounds: tuple[float, float] = SEARCH_BOUNDS,
    tol: float = 1e-6,
) -> EstimateRecord:
    """Fit one estimator to a (nu, T) series matrix.

    The AR(1) pairwise estimate is the closed form; the Wishart estimate
    minimizes the pooled score; everything else minimizes the summed
    per-series objective over ``bounds``.  The sd uses the empirical Godambe
    information by default, or with ``info_method=MONTE_CARLO`` ``mc_draws``
    draws seeded by ``seed``; the Wishart kind always uses its exact
    information (:func:`godambe_analytic`), which needs nu >= T + 4.  Series
    shorter than :func:`~minscore.scores.min_series_length` (T >= 2 for every
    estimator) are rejected.  Estimates at the search boundary are flagged and get no sd.  ``are`` is
    filled when ``sd_mle`` is supplied.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    y = np.atleast_2d(np.asarray(series, dtype=float))
    nu, t_len = y.shape
    method = _sd_method(kind, info_method)
    need = min_series_length(kind, model)
    if t_len < need:
        raise ValueError(
            f"the {kind} estimator on {model} needs series length >= {need}, got {t_len}"
        )

    if kind is EstimatorKind.PAIRWISE_ML and model == "ar1":
        estimate, _ = ar1_pairwise_closed_form(y)
        boundary = not (bounds[0] < estimate < bounds[1])
    elif kind is EstimatorKind.HYV_WISHART:
        estimate = hw_estimate(y, model, bounds=bounds, tol=tol)
        boundary = _at_edge(estimate, bounds, tol)
    else:
        estimate = minimize_scalar(
            lambda theta: float(np.sum(score_per_series(y, kind, model, theta))),
            bounds[0],
            bounds[1],
            tol=tol,
        )
        boundary = _at_edge(estimate, bounds, tol)

    if boundary or not compute_sd:
        return EstimateRecord(kind, float(estimate), None, None, boundary)

    if method is InfoMethod.ANALYTIC:
        comps = godambe_analytic(model, estimate, t_len=t_len, nu=nu)
    elif method is InfoMethod.MONTE_CARLO:
        comps = godambe_montecarlo(model, estimate, kind, mc_draws, seed, t_len=t_len)
    else:
        comps = godambe_empirical(y, kind, model, estimate)
    sd = comps.sd(nu)
    rel_eff = are(sd_mle, sd) if sd_mle is not None else None
    return EstimateRecord(kind, float(estimate), float(sd), rel_eff, False)


def _at_edge(estimate: float, bounds: tuple[float, float], tol: float) -> bool:
    margin = 4.0 * tol
    return estimate <= bounds[0] + margin or estimate >= bounds[1] - margin
