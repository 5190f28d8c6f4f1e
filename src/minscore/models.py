"""Stationary AR(1) and MA(1) models: parameter containers, covariance and
precision matrices, the MA(1) spectrum, and replicated-series sampling.

All matrix builders return plain dense ``numpy`` arrays that are exactly
symmetric as stored.  Samplers are pure functions of ``(params, seed)`` so
replicate-level parallelism is reproducible.

Every MA(1) covariance of length T is tridiagonal Toeplitz, so one fixed
orthogonal basis, the DST-I sine basis, diagonalizes all of them; only the
eigenvalues (:func:`ma1_eigenvalues`) depend on alpha.  Data are rotated into
it (:func:`ma1_sine_transform`) by a cached T x T matrix when they hold at
least T^2 floats, and by an FFT otherwise.  The objectives built on these
carry their parameter dependence as *jets*: arrays whose leading axis holds
a value and its first and second derivatives in the dependence parameter,
combined by the private ``_jet_*`` helpers here, so the estimators get exact
derivatives without finite differences.  The jets of an array of parameter
values carry its shape after that leading axis, so one call covers a grid.
"""

from __future__ import annotations

import functools
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
    "ma1_sine_transform",
    "ma1_eigenvalues",
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


@functools.lru_cache(maxsize=16)
def _half_angle_sin2(t_len: int) -> np.ndarray:
    # sin^2(k pi / (2 (T + 1))) for k = 1..T; reversed, the same array holds
    # cos^2 of those half angles without cancellation
    k = np.arange(1, t_len + 1)
    s2 = np.sin(k * (np.pi / (2 * (t_len + 1)))) ** 2
    s2.flags.writeable = False
    return s2


@functools.lru_cache(maxsize=4)
def _sine_basis(t_len: int) -> np.ndarray:
    # U of ma1_sine_transform, read-only as every caller shares it
    k = np.arange(1, t_len + 1)
    jk = np.outer(k, k) % (2 * t_len + 2)  # exact, which keeps U orthogonal to rounding
    u = np.sqrt(2.0 / (t_len + 1)) * np.sin(jk * (np.pi / (t_len + 1)))
    u.flags.writeable = False
    return u


def ma1_sine_transform(x, axis: int = -1) -> np.ndarray:
    """Orthonormal DST-I of ``x`` along ``axis``: ``x @ U`` for a length-T axis,
    with ``U[j, k] = sqrt(2/(T+1)) sin(jk pi/(T+1))``, j, k = 1..T.

    ``U`` is symmetric and orthogonal and diagonalizes every MA(1) covariance
    of length T: ``Omega = U diag(lambda) U`` with ``lambda`` from
    :func:`ma1_eigenvalues`.  Input of at least T^2 floats is multiplied by a
    cached ``U``, never larger than it; smaller input (one series, fewer than
    T series) takes the FFT of the odd extension, O(T log T) per row.
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    t_len = _check_t(x.shape[-1], 1)
    if x.size >= t_len * t_len:
        return np.moveaxis(x @ _sine_basis(t_len), -1, axis)
    odd = np.zeros(x.shape[:-1] + (2 * (t_len + 1),))
    odd[..., 1 : t_len + 1] = x
    odd[..., t_len + 2 :] = -x[..., ::-1]
    # the odd extension's DFT is -2i sum_j x_j sin(jk pi/(T+1))
    z = np.fft.rfft(odd)[..., 1 : t_len + 1].imag * -np.sqrt(0.5 / (t_len + 1))
    return np.moveaxis(z, -1, axis)


def ma1_eigenvalues(alpha, t_len: int, order: int = 0) -> np.ndarray:
    """Jet (``order + 1`` rows) of the unit-variance MA(1) covariance
    eigenvalues ``lambda_k = 1 + alpha^2 + 2 alpha cos(k pi/(T+1))``: shape
    ``(order + 1, *alpha.shape, T)`` for a scalar or array ``alpha``.

    Each eigenvalue is summed from non-negative terms,
    ``(1 - |alpha|)^2 + 4 |alpha| sin^2`` or ``cos^2`` of the half angle, so
    nothing cancels as ``|alpha| -> 1``.  Derivatives in alpha:
    ``2 (alpha + cos(k pi/(T+1)))`` and 2.
    """
    s2 = _half_angle_sin2(_check_t(t_len, 1))
    c2 = s2[::-1]
    # the eigenvalue axis goes last; a scalar alpha takes the array path, so
    # it gets the bits of the same alpha inside an array
    alpha = np.asarray(alpha, dtype=float)[..., None]
    a = np.abs(alpha)
    gap = 1.0 - a
    half = np.where(alpha < 0, s2, c2)
    rows = [gap * gap + 4.0 * a * half]
    if order >= 1:
        rows.append(2.0 * (alpha + (c2 - s2)))
    if order >= 2:
        rows.append(np.full(rows[0].shape, 2.0))
    return _stack(rows)


def _stack(rows: list) -> np.ndarray:
    # the jet of its rows; a one-row jet is a view, not a copy
    return rows[0][None] if len(rows) == 1 else np.array(rows)


_POWERS = np.arange(5)  # the powers 0..4 of every polynomial jet


def _power_jets(x, order: int) -> np.ndarray:
    """``(order + 1, *x.shape, 5)`` array for a scalar or array x: row r
    holds ``d^r/dx^r x**j`` for j = 0..4, so ``_power_jets(x, r) @ c`` is
    the jet of the quartic with coefficients ``c`` (lowest power first)."""
    x = np.asarray(x, dtype=float)[..., None]
    j = _POWERS
    rows = [x ** j]
    if order >= 1:
        rows.append(j * x ** np.maximum(j - 1, 0))
    if order >= 2:
        rows.append(j * (j - 1) * x ** np.maximum(j - 2, 0))
    return _stack(rows)


def _jet_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet of the product of two jets (Leibniz rule)."""
    rows = [a[0] * b[0]]
    if len(a) > 1:
        rows.append(a[1] * b[0] + a[0] * b[1])
    if len(a) > 2:
        rows.append(a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])
    return _stack(rows)


def _chain(x: np.ndarray, f: list) -> np.ndarray:
    # jet of g(x) from the jet x and f[r] = g^(r)(x[0])
    rows = [f[0]]
    if len(x) > 1:
        rows.append(f[1] * x[1])
    if len(x) > 2:
        rows.append(f[2] * x[1] ** 2 + f[1] * x[2])
    return _stack(rows)


def _jet_power(x: np.ndarray, p: int) -> np.ndarray:
    """Jet of ``x**p`` for a jet ``x``."""
    x0 = x[0]
    f = [x0**p]
    if len(x) > 1:
        f.append(p * x0 ** (p - 1))
    if len(x) > 2:
        f.append(p * (p - 1) * x0 ** (p - 2))
    return _chain(x, f)


def _jet_log(x: np.ndarray) -> np.ndarray:
    """Jet of ``log(x)`` for a positive jet ``x``."""
    x0 = x[0]
    f = [np.log(x0)]
    if len(x) > 1:
        f.append(1.0 / x0)
    if len(x) > 2:
        f.append(-f[1] ** 2)
    return _chain(x, f)


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
