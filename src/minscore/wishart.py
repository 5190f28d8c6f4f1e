"""Hyvarinen score on the Wishart law of the sum-of-squares matrix S = Y'Y.

For ``nu`` independent zero-mean Gaussian series with common covariance
``Lambda``, S is Wishart with ``nu`` degrees of freedom and scale ``Lambda``.
Writing ``c = (nu - T - 1) / 2`` and ``s^{ij}``, ``lam^{ij}`` for the entries
of the inverses of S and Lambda, the score is

    HW(S, Lambda) = -c * sum_i (s^{ii})^2
                    + 0.5 * sum_{i,j} (c * s^{ji} - 0.5 * lam^{ji})^2

with the double sum running over all ordered index pairs, and its derivative
in the scalar dependence parameter is

    -0.5 * sum_{i,j} (c * s^{ji} - 0.5 * lam^{ji}) * d lam^{ji} / d lambda.

Expanding the square, the score is ``-(c/2) <S^{-1}, P> + ||P||_F^2 / 8`` plus
a term free of lambda, with ``P`` the scale precision, so S enters through a
few statistics of S^{-1} computed once per fit (:class:`WishartContext`):
for AR(1) its trace, interior-diagonal sum and first off-diagonal sum, for
MA(1) the diagonal of ``U S^{-1} U`` in the DST-I basis that diagonalizes P.
Each evaluation then costs O(1) (AR) or O(T) (MA), and the derivatives are
exact.

The sensitivity of that estimating equation is the deterministic quantity
``K = 0.25 * sum_{i,j} (d lam^{ji} / d lambda)^2``, which for AR(1) collapses
to the closed form in :func:`k_analytic_ar1`.  The derivative is linear in
S^{-1}, which is inverse-Wishart, so its variance is exact as well
(:func:`wishart_variability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import (
    _jet_power,
    _jet_product,
    _power_jets,
    ar1_precision,
    canonical_model,
    ma1_eigenvalues,
    ma1_precision,
    ma1_sine_transform,
    params_for,
    sample_series,
    sum_of_squares,
)
from .optimize import minimize_scalar

__all__ = [
    "WishartContext",
    "wishart_context",
    "scale_precision",
    "precision_derivative",
    "hw_score",
    "hw_grad",
    "hw_grad_samples",
    "k_analytic_ar1",
    "wishart_sensitivity",
    "wishart_variability",
    "hw_estimate",
]

SEARCH_BOUNDS = (-0.999, 0.999)


@dataclass(frozen=True)
class WishartContext:
    """Immutable bundle of degrees of freedom, dimension, cached S inverse and
    the model mapping the scalar parameter to the scale matrix.

    ``stats`` and ``offset`` are derived from S inverse on construction:
    ``stats`` are what the score contracts with the scale precision (AR(1):
    trace, interior-diagonal sum and first off-diagonal sum; MA(1): the
    diagonal of ``U S^{-1} U``), and ``offset`` is the part of the score free
    of lam.  The score and its exact gradient read only these.
    """

    nu: int
    t_len: int
    s_inv: np.ndarray = field(repr=False)
    model: str
    stats: np.ndarray = field(init=False, repr=False)
    offset: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.nu < self.t_len + 2:
            raise ValueError(
                f"Wishart score needs nu >= T + 2; got nu={self.nu}, T={self.t_len}"
            )
        if self.s_inv.shape != (self.t_len, self.t_len):
            raise ValueError(f"S inverse must be {self.t_len}x{self.t_len}")
        c = self.half_dof
        offset = 0.5 * c * c * np.sum(self.s_inv**2) - c * np.sum(np.diag(self.s_inv) ** 2)
        object.__setattr__(self, "stats", _precision_stats(self.s_inv, self.model))
        object.__setattr__(self, "offset", float(offset))

    @property
    def half_dof(self) -> float:
        """The constant (nu - T - 1) / 2 appearing throughout the score."""
        return 0.5 * (self.nu - self.t_len - 1)


def wishart_context(s, nu: int, model: str) -> WishartContext:
    """Invert the sum-of-squares matrix once and cache it for repeated score
    evaluations: ``S^{-1} = L^{-T} L^{-1}`` from the Cholesky factor
    ``S = L L'``, symmetrized."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("sum-of-squares matrix contains non-finite values (NaN or inf)")
    t_len = s.shape[0]
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular sum-of-squares matrix: {exc}") from exc
    s_inv = l_inv.T @ l_inv
    s_inv = 0.5 * (s_inv + s_inv.T)
    return WishartContext(nu=int(nu), t_len=t_len, s_inv=s_inv, model=canonical_model(model))


def scale_precision(model: str, lam: float, t_len: int) -> np.ndarray:
    """Inverse of the unit-variance scale matrix at dependence parameter lam.

    AR(1) with T = 1 is handled directly (the tridiagonal corner pattern only
    exists for T >= 2): the scale entry is 1/(1-lam^2), so its inverse is
    1 - lam^2.
    """
    model = canonical_model(model)
    params = params_for(model, lam)
    if model == "ar1":
        if t_len == 1:
            return np.array([[1.0 - lam**2]])
        return ar1_precision(params, t_len)
    return ma1_precision(params, t_len)


def precision_derivative(model: str, lam: float, t_len: int) -> np.ndarray:
    """Elementwise derivative of :func:`scale_precision` in lam, analytic.

    AR(1): off-diagonals -1, interior diagonal 2*lam, corner diagonal 0.
    MA(1): ``U diag(d(1/lambda_k)/d lam) U`` in the DST-I basis, which equals
    ``-P Omega' P`` with ``Omega'`` tridiagonal ``(1, 2 lam, 1)``.
    """
    model = canonical_model(model)
    if model == "ar1":
        if t_len == 1:
            return np.array([[-2.0 * lam]])
        deriv = np.zeros((t_len, t_len))
        idx = np.arange(t_len - 1)
        deriv[idx, idx + 1] = -1.0
        deriv[idx + 1, idx] = -1.0
        inner = np.arange(1, t_len - 1)
        deriv[inner, inner] = 2.0 * lam
        return deriv
    return _rotate_both(np.diag(_jet_power(ma1_eigenvalues(lam, t_len, 1), -1)[1]))


def _rotate_both(m: np.ndarray) -> np.ndarray:
    # U M U, with U the DST-I basis of ma1_sine_transform
    return ma1_sine_transform(ma1_sine_transform(m, axis=0), axis=1)


def _precision_stats(s_inv: np.ndarray, model: str) -> np.ndarray:
    # statistics of a symmetric matrix M with <M, P(lam)> = stats @ coef(lam)
    if model == "ma1":
        return np.diagonal(_rotate_both(s_inv)).copy()
    diag = np.diag(s_inv)
    # the interior sum is the trace minus both ends, which is -M[0, 0] at
    # T = 1, where the scale precision is 1 - lam^2
    return np.array([diag.sum(), diag.sum() - diag[0] - diag[-1], np.trace(s_inv, 1)])


# <M, P(phi)> = trace + phi^2 * interior - 2 phi * off-diagonal, by power of phi
_AR1_PRECISION_COEF = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 1.0, 0.0]])


def _score_terms(model: str, lam: float, t_len: int, order: int):
    # jets of coef(lam) and of ||P(lam)||_F^2
    if model == "ma1":
        p = _jet_power(ma1_eigenvalues(lam, t_len, order), -1)  # eigenvalues of P
        return p, _jet_product(p, p).sum(axis=-1)
    x = _power_jets(lam, order)
    # the AR(1) precision has diagonal 1 + lam^2 i_t, with i_t = 1 inside,
    # 0 at the two ends and -1 when T = 1, and off-diagonal -lam
    norm = x @ np.array([t_len, 0.0, 4.0 * t_len - 6.0, 0.0, abs(t_len - 2.0)])
    return x[:, :3] @ _AR1_PRECISION_COEF, norm


def hw_score(ctx: WishartContext, lam: float) -> float:
    """Wishart Hyvarinen score at dependence parameter lam."""
    coef, norm = _score_terms(ctx.model, lam, ctx.t_len, 0)
    return float(ctx.offset - 0.5 * ctx.half_dof * (ctx.stats @ coef[0]) + 0.125 * norm[0])


def hw_grad(ctx: WishartContext, lam: float) -> float:
    """Exact derivative of :func:`hw_score` in lam, from the statistics of
    the context."""
    coef, norm = _score_terms(ctx.model, lam, ctx.t_len, 1)
    return float(-0.5 * ctx.half_dof * (ctx.stats @ coef[1]) + 0.125 * norm[1])


def _derivative_traces(model: str, lam: float, t_len: int) -> tuple[float, float, float]:
    # tr(D P), tr(D P D P) and ||D||_F^2, with P = scale_precision and D its derivative
    if model == "ma1":
        p = _jet_power(ma1_eigenvalues(lam, t_len, 1), -1)  # eigenvalues of P and of D
        dp = p[1] * p[0]
        return float(np.sum(dp)), float(dp @ dp), float(p[1] @ p[1])
    deriv = precision_derivative(model, lam, t_len)
    d_psi = deriv @ scale_precision(model, lam, t_len)
    return float(np.trace(d_psi)), float(np.sum(d_psi * d_psi.T)), float(np.sum(deriv * deriv))


def k_analytic_ar1(phi: float, t_len: int) -> float:
    """Closed-form sensitivity of the AR(1) Wishart score equation:
    ``(T - 1 + 2 phi^2 (T - 2)) / 2``."""
    if not abs(phi) < 1:
        raise ValueError(f"stationarity requires |phi| < 1, got {phi}")
    if t_len < 2:
        raise ValueError(f"need T >= 2, got {t_len}")
    return (t_len - 1 + 2.0 * phi**2 * (t_len - 2)) / 2.0


def wishart_sensitivity(model: str, lam: float, t_len: int) -> float:
    """Sensitivity K = 0.25 * sum of squared precision-derivative entries.

    Exact expectation of the second derivative of the score; reduces to
    :func:`k_analytic_ar1` for the AR(1) model.
    """
    return 0.25 * _derivative_traces(canonical_model(model), lam, t_len)[2]


def wishart_variability(model: str, lam: float, nu: int, t_len: int) -> float:
    """Exact variance of :func:`hw_grad` at lam when S is Wishart at lam.

    The gradient is ``-c/2 * tr(D S^{-1})`` plus a constant, with D the
    precision derivative, and S^{-1} is inverse-Wishart with scale
    Psi = :func:`scale_precision`.  Its second moments (von Rosen 1988,
    Scand. J. Statist. 15) give, with n = nu and p = T,

        c^2/4 * [2 a^2 + 2 (n-p-1) b] / ((n-p) (n-p-1)^2 (n-p-3)),

    ``a = tr(D Psi)`` and ``b = tr(D Psi D Psi)``; the gradient has mean zero,
    so this is also its mean square.  Finite only for nu >= T + 4.
    """
    if nu < t_len + 4:
        raise ValueError(
            f"the Wishart sd needs nu >= T + 4; got nu={nu}, T={t_len}"
        )
    c = 0.5 * (nu - t_len - 1)
    a, b, _ = _derivative_traces(canonical_model(model), lam, t_len)
    m = nu - t_len
    return c * c / 4.0 * (2.0 * a * a + 2.0 * (m - 1) * b) / (m * (m - 1) ** 2 * (m - 3))


def hw_grad_samples(
    model: str,
    lam: float,
    nu: int,
    t_len: int,
    n_draws: int,
    seed,
    chunk: int = 128,
) -> np.ndarray:
    """Score-equation gradients at lam over fresh Wishart draws.

    Each draw is the sum-of-squares matrix of ``nu`` simulated series of
    length ``t_len`` at parameter lam, reusing the model samplers so one RNG
    path covers both fitting and variance estimation.  Returns an array of
    ``n_draws`` gradient values.
    """
    model = canonical_model(model)
    if nu < t_len + 2:
        raise ValueError(f"Wishart draws need nu >= T + 2; got nu={nu}, T={t_len}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    prec = scale_precision(model, lam, t_len)
    dprec = precision_derivative(model, lam, t_len)
    c = 0.5 * (nu - t_len - 1)
    grads = np.empty(n_draws)
    done = 0
    while done < n_draws:
        n = min(chunk, n_draws - done)
        draws = sample_series(model, lam, n * nu, t_len, rng).reshape(n, nu, t_len)
        s = np.matmul(draws.transpose(0, 2, 1), draws)
        s_inv = np.linalg.inv(s)
        s_inv = 0.5 * (s_inv + s_inv.transpose(0, 2, 1))
        resid = c * s_inv - 0.5 * prec
        grads[done : done + n] = -0.5 * np.einsum("bij,ij->b", resid, dprec)
        done += n
    return grads


def hw_estimate(
    series,
    model: str,
    bounds: tuple[float, float] = SEARCH_BOUNDS,
    tol: float = 1e-6,
) -> float:
    """Minimize the Wishart score over the open dependence-parameter interval.

    The sum-of-squares matrix is formed once; requires at least T + 2 series.
    """
    y = np.atleast_2d(np.asarray(series, dtype=float))
    ctx = wishart_context(sum_of_squares(y), nu=y.shape[0], model=model)
    return minimize_scalar(lambda lam: hw_score(ctx, lam), bounds[0], bounds[1], tol=tol)
