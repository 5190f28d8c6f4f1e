"""Per-series objective functions for the four estimators.

Log-likelihoods (full and consecutive-pairwise) are returned in their natural
orientation (higher is better); Hyvarinen scores are losses (lower is better).
:func:`score_per_series` and :func:`total_score` put everything on a common
minimization footing by negating the log-likelihoods.

Every evaluator accepts a single series of shape (T,) or a stack of series of
shape (nu, T) and broadcasts over the leading axis.  Additive constants are
dropped exactly where the closed-form displays drop them, so objective values
are comparable within one estimator but not across estimators.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.linalg import solveh_banded

from .models import Ar1Params, Ma1Params, canonical_model, ma1_geometric_sums, params_for

__all__ = [
    "EstimatorKind",
    "DegenerateDataError",
    "ar1_full_loglik",
    "ar1_pairwise_loglik",
    "ar1_pairwise_closed_form",
    "ar1_hyvarinen",
    "gaussian_hyvarinen",
    "ma1_full_loglik",
    "ma1_pairwise_loglik",
    "ma1_hyvarinen",
    "score_per_series",
    "total_score",
    "min_series_length",
]


class EstimatorKind(str, Enum):
    """The four estimators compared by the simulation harness."""

    FULL_ML = "full"
    PAIRWISE_ML = "pairwise"
    HYV_UNIVARIATE = "hyv"
    HYV_WISHART = "hyv-wishart"

    def __str__(self) -> str:
        return self.value


class DegenerateDataError(ValueError):
    """Data carries no information for the requested estimate."""


# Every estimator needs T >= 2: at T = 1 the law depends on phi or alpha only
# through its square, so the sign is not identified.  Longer minimums:
_MIN_SERIES_LENGTH = {("ar1", EstimatorKind.HYV_UNIVARIATE): 3}
_MIN_IDENTIFIED_LENGTH = 2


def min_series_length(kind: EstimatorKind, model: str) -> int:
    """Shortest series length the estimator accepts for the model."""
    key = (canonical_model(model), EstimatorKind(kind))
    return _MIN_SERIES_LENGTH.get(key, _MIN_IDENTIFIED_LENGTH)


def _as_series(y, model: str | None = None, kind: EstimatorKind | None = None) -> np.ndarray:
    # without a model, any length is accepted (the generic Gaussian score)
    y = np.asarray(y, dtype=float)
    min_t = 1 if model is None else _MIN_SERIES_LENGTH.get((model, kind), _MIN_IDENTIFIED_LENGTH)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (nu, T) array, got shape {y.shape}")
    if y.shape[-1] < min_t:
        raise ValueError(f"need series length >= {min_t}, got {y.shape[-1]}")
    return y


def ar1_full_loglik(y, params: Ar1Params):
    """Exact stationary AR(1) log-likelihood (additive constants dropped)."""
    y = _as_series(y, "ar1", EstimatorKind.FULL_ML)
    t_len = y.shape[-1]
    d = y - params.mu
    q_all = np.sum(d * d, axis=-1)
    q_interior = np.sum(d[..., 1:-1] ** 2, axis=-1)
    cross = np.sum(d[..., 1:] * d[..., :-1], axis=-1)
    quad = q_all + params.phi**2 * q_interior - 2.0 * params.phi * cross
    return (
        -quad / (2.0 * params.sigma2)
        - 0.5 * t_len * np.log(params.sigma2)
        + 0.5 * np.log1p(-params.phi**2)
    )


def ar1_pairwise_loglik(y, params: Ar1Params):
    """Consecutive pairwise AR(1) log-likelihood: sum of the T-1 bivariate
    Gaussian log-densities of adjacent pairs (constants dropped)."""
    y = _as_series(y, "ar1", EstimatorKind.PAIRWISE_ML)
    t_len = y.shape[-1]
    d = y - params.mu
    paired = np.sum(d[..., 1:] ** 2, axis=-1) + np.sum(d[..., :-1] ** 2, axis=-1)
    cross = np.sum(d[..., 1:] * d[..., :-1], axis=-1)
    return (
        -(paired - 2.0 * params.phi * cross) / (2.0 * params.sigma2)
        - (t_len - 1) * np.log(params.sigma2)
        + 0.5 * (t_len - 1) * np.log1p(-params.phi**2)
    )


def ar1_pairwise_closed_form(series) -> tuple[float, float]:
    """Closed-form pairwise estimates (phi_hat, sigma2_hat) with mu = 0 known.

    Sums pool over all series and all consecutive pairs:
    ``phi_hat = 2 * sum(y_t y_{t-1}) / sum(y_t^2 + y_{t-1}^2)`` (Yule-Walker)
    and ``sigma2_hat = sum(y_t^2 + y_{t-1}^2) / (2 nu (T-1)) * (1 - phi_hat^2)``.

    Boundary values ``|phi_hat| >= 1`` are returned as-is; callers decide how
    to flag them.  Raises :class:`DegenerateDataError` when every pair is zero.
    """
    y = np.atleast_2d(_as_series(series, "ar1", EstimatorKind.PAIRWISE_ML))
    nu, t_len = y.shape
    cross = float(np.sum(y[:, 1:] * y[:, :-1]))
    paired = float(np.sum(y[:, 1:] ** 2) + np.sum(y[:, :-1] ** 2))
    if paired == 0.0:
        raise DegenerateDataError("all consecutive pairs are zero")
    phi_hat = 2.0 * cross / paired
    sigma2_hat = paired / (2.0 * nu * (t_len - 1)) * (1.0 - phi_hat**2)
    return phi_hat, sigma2_hat


def gaussian_hyvarinen(y, precision, mu: float = 0.0):
    """Hyvarinen score of a multivariate normal given its precision matrix:
    ``-trace(P) + 0.5 * ||P (y - mu)||^2``.

    Never references the normalizing constant, so it is invariant under
    positive rescaling of the density.
    """
    prec = np.asarray(precision, dtype=float)
    if prec.ndim != 2 or prec.shape[0] != prec.shape[1]:
        raise ValueError(f"precision must be square, got shape {prec.shape}")
    y = _as_series(y)
    if y.shape[-1] != prec.shape[0]:
        raise ValueError(
            f"dimension mismatch: series length {y.shape[-1]} vs precision {prec.shape[0]}"
        )
    r = (y - mu) @ prec
    return 0.5 * np.sum(r * r, axis=-1) - np.trace(prec)


def ar1_hyvarinen(y, params: Ar1Params):
    """Closed-form AR(1) Hyvarinen score.

    Equals :func:`gaussian_hyvarinen` with the tridiagonal AR(1) precision:
    interior residuals ``(1+phi^2) d_t - phi (d_{t-1} + d_{t+1})`` and boundary
    residuals ``d_1 - phi d_2`` and ``d_T - phi d_{T-1}``, each squared over
    ``2 sigma2^2``, minus ``(2 + (T-2)(1+phi^2)) / sigma2``.
    """
    y = _as_series(y, "ar1", EstimatorKind.HYV_UNIVARIATE)
    t_len = y.shape[-1]
    d = y - params.mu
    interior = (1.0 + params.phi**2) * d[..., 1:-1] - params.phi * (d[..., :-2] + d[..., 2:])
    lo = d[..., 0] - params.phi * d[..., 1]
    hi = d[..., -1] - params.phi * d[..., -2]
    ssq = np.sum(interior * interior, axis=-1) + lo * lo + hi * hi
    return ssq / (2.0 * params.sigma2**2) - (
        2.0 + (t_len - 2) * (1.0 + params.phi**2)
    ) / params.sigma2


def ma1_full_loglik(y, params: Ma1Params):
    """MA(1) log-likelihood ``-0.5 log|Omega| - 0.5 (y-mu) Omega^{-1} (y-mu)'``.

    O(T) per series, with no dense T x T matrix: the log-determinant is the
    closed form ``T log(sigma2) + log(g[T])`` with ``g`` from
    :func:`~minscore.models.ma1_geometric_sums`, and the quadratic form comes
    from one banded solve of the tridiagonal covariance for all series at once.
    """
    y = _as_series(y, "ma1", EstimatorKind.FULL_ML)
    t_len = y.shape[-1]
    d = y - params.mu
    logdet = t_len * np.log(params.sigma2) + np.log(ma1_geometric_sums(params.alpha, t_len)[-1])
    return -0.5 * logdet - 0.5 * np.sum(d * _ma1_solve(d, params), axis=-1)


def _ma1_solve(d: np.ndarray, params: Ma1Params) -> np.ndarray:
    # Omega^{-1} d row by row, from the 2 x T upper band of the covariance
    band = np.empty((2, d.shape[-1]))
    band[0] = params.sigma2 * params.alpha  # band[0, 0] is not read
    band[1] = params.sigma2 * (1.0 + params.alpha**2)
    try:
        return solveh_banded(band, d.T, check_finite=False).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"MA(1) covariance is not positive definite: {exc}") from exc


def ma1_pairwise_loglik(y, params: Ma1Params):
    """Consecutive pairwise MA(1) log-likelihood (constants dropped).

    Each adjacent pair is bivariate normal with variance sigma2*(1+alpha^2)
    and covariance sigma2*alpha; the pair determinant is
    sigma2^2 * (1 + alpha^2 + alpha^4).
    """
    y = _as_series(y, "ma1", EstimatorKind.PAIRWISE_ML)
    t_len = y.shape[-1]
    a = params.alpha
    denom = 1.0 + a**2 + a**4
    d = y - params.mu
    paired = np.sum(d[..., 1:] ** 2, axis=-1) + np.sum(d[..., :-1] ** 2, axis=-1)
    cross = np.sum(d[..., 1:] * d[..., :-1], axis=-1)
    quad = (paired * (1.0 + a**2) - 2.0 * a * cross) / denom
    return (
        -quad / (2.0 * params.sigma2)
        - 0.5 * (t_len - 1) * np.log(denom)
        - (t_len - 1) * np.log(params.sigma2)
    )


def ma1_hyvarinen(y, params: Ma1Params):
    """MA(1) Hyvarinen score ``0.5 ||P (y-mu)||^2 - tr(P)`` with ``P = Omega^{-1}``.

    ``P (y-mu)`` comes from the banded solve of :func:`ma1_full_loglik` and the
    trace from the closed-form diagonal of the precision,
    ``tr(P) = sum_i g[i-1] g[T-i] / (g[T] sigma2)``; O(T) per series.
    """
    y = _as_series(y, "ma1", EstimatorKind.HYV_UNIVARIATE)
    x = _ma1_solve(y - params.mu, params)
    g = ma1_geometric_sums(params.alpha, y.shape[-1])
    trace = np.sum(g[:-1] * g[-2::-1]) / (g[-1] * params.sigma2)
    return 0.5 * np.sum(x * x, axis=-1) - trace


def score_per_series(series, kind: EstimatorKind, model: str, theta: float):
    """Per-series objective in minimization orientation (one value per row).

    Log-likelihood kinds are negated so that every estimator minimizes.  The
    Wishart score is not a per-series sum and is rejected here.
    """
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    if kind is EstimatorKind.HYV_WISHART:
        raise ValueError("the Wishart score is not a per-series objective; see minscore.wishart")
    params = params_for(model, theta)
    if model == "ar1":
        if kind is EstimatorKind.FULL_ML:
            return -ar1_full_loglik(series, params)
        if kind is EstimatorKind.PAIRWISE_ML:
            return -ar1_pairwise_loglik(series, params)
        return ar1_hyvarinen(series, params)
    if kind is EstimatorKind.FULL_ML:
        return -ma1_full_loglik(series, params)
    if kind is EstimatorKind.PAIRWISE_ML:
        return -ma1_pairwise_loglik(series, params)
    return ma1_hyvarinen(series, params)


def total_score(series, kind: EstimatorKind, model: str, theta: float) -> float:
    """Total empirical score: sum of per-series objectives over all rows."""
    y = np.atleast_2d(np.asarray(series, dtype=float))
    return float(np.sum(score_per_series(y, kind, model, theta)))
