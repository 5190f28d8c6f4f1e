"""Stationary AR(1) and MA(1) models: parameter containers, covariance and
precision matrices, and replicated-series sampling.

All matrix builders return plain dense ``numpy`` arrays that are exactly
symmetric as stored.  Samplers are pure functions of ``(params, seed)`` so
replicate-level parallelism is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ar1Params",
    "Ma1Params",
    "SeedLike",
    "ar1_covariance",
    "ar1_precision",
    "ma1_covariance",
    "ma1_precision",
    "ma1_geometric_sums",
    "sample_ar1",
    "sample_ma1",
    "sample_series",
    "sum_of_squares",
    "canonical_model",
    "params_for",
]

SeedLike = int | np.random.SeedSequence | np.random.Generator

MODELS = ("ar1", "ma1")


@dataclass(frozen=True)
class Ar1Params:
    """AR(1) parameters: level ``mu``, innovation variance ``sigma2`` and
    autoregressive coefficient ``phi`` with ``|phi| < 1``."""

    mu: float
    sigma2: float
    phi: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not abs(self.phi) < 1:
            raise ValueError(f"stationarity requires |phi| < 1, got {self.phi}")


@dataclass(frozen=True)
class Ma1Params:
    """MA(1) parameters: level ``mu``, innovation variance ``sigma2`` and
    moving-average coefficient ``alpha`` with ``|alpha| < 1``."""

    mu: float
    sigma2: float
    alpha: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not abs(self.alpha) < 1:
            raise ValueError(f"invertibility requires |alpha| < 1, got {self.alpha}")


def canonical_model(model: str) -> str:
    """Normalize a model tag to 'ar1' or 'ma1'."""
    name = str(model).strip().lower()
    if name not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return name


def params_for(model: str, theta: float, mu: float = 0.0, sigma2: float = 1.0):
    """Parameter container for a scalar dependence parameter (phi or alpha)."""
    if canonical_model(model) == "ar1":
        return Ar1Params(mu, sigma2, float(theta))
    return Ma1Params(mu, sigma2, float(theta))


def _check_t(t_len: int, minimum: int) -> int:
    t_len = int(t_len)
    if t_len < minimum:
        raise ValueError(f"series length must be >= {minimum}, got {t_len}")
    return t_len


def ar1_covariance(params: Ar1Params, t_len: int) -> np.ndarray:
    """Covariance matrix with entry (l, m) = sigma2 * phi**|l-m| / (1 - phi**2)."""
    t_len = _check_t(t_len, 1)
    idx = np.arange(t_len)
    lags = np.abs(np.subtract.outer(idx, idx))
    return (params.sigma2 / (1.0 - params.phi**2)) * np.power(params.phi, lags)


def ar1_precision(params: Ar1Params, t_len: int) -> np.ndarray:
    """Tridiagonal inverse of :func:`ar1_covariance`.

    Off-diagonal entries are -phi, diagonal entries 1 + phi**2 except the two
    corners which are 1, all divided by sigma2.  Requires ``t_len >= 2`` (the
    corner pattern does not describe the scalar case).
    """
    t_len = _check_t(t_len, 2)
    diag = np.full(t_len, 1.0 + params.phi**2)
    diag[0] = diag[-1] = 1.0
    prec = np.diag(diag)
    off = np.arange(t_len - 1)
    prec[off, off + 1] = -params.phi
    prec[off + 1, off] = -params.phi
    return prec / params.sigma2


def ma1_covariance(params: Ma1Params, t_len: int) -> np.ndarray:
    """Tridiagonal covariance: diagonal sigma2*(1+alpha**2), first off-diagonal
    sigma2*alpha, zero elsewhere."""
    t_len = _check_t(t_len, 1)
    cov = np.eye(t_len) * (params.sigma2 * (1.0 + params.alpha**2))
    off = np.arange(t_len - 1)
    cov[off, off + 1] = params.sigma2 * params.alpha
    cov[off + 1, off] = params.sigma2 * params.alpha
    return cov


def ma1_precision(params: Ma1Params, t_len: int) -> np.ndarray:
    """Inverse of :func:`ma1_covariance` in closed form.

    Entry (i, j) for j >= i (1-based) is
    ``(-alpha)**(j-i) * g[i-1] * g[T-j] / (g[T] * sigma2)`` where
    ``g[k] = 1 + alpha**2 + ... + alpha**(2k)`` (:func:`ma1_geometric_sums`);
    the lower triangle follows by symmetry.
    """
    t_len = _check_t(t_len, 1)
    g = ma1_geometric_sums(params.alpha, t_len)
    idx = np.arange(t_len)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    powers = np.power(-params.alpha, idx)
    return powers[hi - lo] * g[lo] * g[t_len - 1 - hi] / (g[t_len] * params.sigma2)


def ma1_geometric_sums(alpha: float, t_len: int) -> np.ndarray:
    """``g[k] = 1 + alpha**2 + ... + alpha**(2k)`` for ``k = 0, ..., t_len``.

    ``g[t_len]`` is the determinant of the unit-variance MA(1) covariance of
    length ``t_len``; the sums are accumulated term by term, which stays
    stable as ``|alpha|`` approaches 1.
    """
    return np.cumsum(np.power(alpha * alpha, np.arange(t_len + 1)))


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_ar1(params: Ar1Params, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample ``nu`` independent stationary AR(1) paths of length ``t_len``.

    The first observation is drawn from the stationary law
    N(mu, sigma2 / (1 - phi**2)); subsequent values follow
    ``y[t] - mu = phi * (y[t-1] - mu) + z[t]`` with N(0, sigma2) innovations.
    Output is a (nu, t_len) array, identical for identical seeds.
    """
    nu = int(nu)
    t_len = _check_t(t_len, 1)
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    rng = _generator(seed)
    y = rng.standard_normal((nu, t_len))
    y *= np.sqrt(params.sigma2)
    y[:, 0] /= np.sqrt(1.0 - params.phi**2)
    scratch = np.empty(nu)
    for t in range(1, t_len):
        np.multiply(y[:, t - 1], params.phi, out=scratch)
        y[:, t] += scratch
    if params.mu != 0.0:
        y += params.mu
    return y


def sample_ma1(params: Ma1Params, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample ``nu`` independent MA(1) paths: ``y[t] - mu = alpha*z[t-1] + z[t]``
    with ``t_len + 1`` iid N(0, sigma2) innovations per path."""
    nu = int(nu)
    t_len = _check_t(t_len, 1)
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    rng = _generator(seed)
    z = rng.standard_normal((nu, t_len + 1))
    z *= np.sqrt(params.sigma2)
    y = params.alpha * z[:, :-1]
    y += z[:, 1:]
    if params.mu != 0.0:
        y += params.mu
    return y


def sample_series(model: str, theta: float, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample from either model at scalar parameter ``theta`` (mu=0, sigma2=1)."""
    if canonical_model(model) == "ar1":
        return sample_ar1(params_for("ar1", theta), nu, t_len, seed)
    return sample_ma1(params_for("ma1", theta), nu, t_len, seed)


def sum_of_squares(series: np.ndarray) -> np.ndarray:
    """Sum-of-squares-and-products matrix S = Y'Y of a (nu, T) series matrix."""
    y = np.atleast_2d(np.asarray(series, dtype=float))
    s = y.T @ y
    return 0.5 * (s + s.T)
