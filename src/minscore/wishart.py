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

The sensitivity of that estimating equation is the deterministic quantity
``K = 0.25 * sum_{i,j} (d lam^{ji} / d lambda)^2``, which for AR(1) collapses
to the closed form in :func:`k_analytic_ar1`.  The derivative is linear in
S^{-1}, which is inverse-Wishart, so its variance is exact as well
(:func:`wishart_variability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sp_linalg

from .models import (
    ar1_precision,
    canonical_model,
    ma1_precision,
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

MA_DERIVATIVE_STEP = 1e-6

SEARCH_BOUNDS = (-0.999, 0.999)


@dataclass(frozen=True)
class WishartContext:
    """Immutable bundle of degrees of freedom, dimension, cached S inverse and
    the model mapping the scalar parameter to the scale matrix."""

    nu: int
    t_len: int
    s_inv: np.ndarray = field(repr=False)
    model: str

    def __post_init__(self):
        if self.nu < self.t_len + 2:
            raise ValueError(
                f"Wishart score needs nu >= T + 2; got nu={self.nu}, T={self.t_len}"
            )
        if self.s_inv.shape != (self.t_len, self.t_len):
            raise ValueError(f"S inverse must be {self.t_len}x{self.t_len}")

    @property
    def half_dof(self) -> float:
        """The constant (nu - T - 1) / 2 appearing throughout the score."""
        return 0.5 * (self.nu - self.t_len - 1)


def wishart_context(s, nu: int, model: str) -> WishartContext:
    """Invert the sum-of-squares matrix once (symmetric factorization) and
    cache it for repeated score evaluations."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be a square matrix, got shape {s.shape}")
    t_len = s.shape[0]
    try:
        chol = sp_linalg.cho_factor(s, lower=True)
        s_inv = sp_linalg.cho_solve(chol, np.eye(t_len))
    except (np.linalg.LinAlgError, sp_linalg.LinAlgError) as exc:
        raise ValueError(f"singular sum-of-squares matrix: {exc}") from exc
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
    """Elementwise derivative of :func:`scale_precision` in lam.

    Analytic for AR(1) (off-diagonals -1, interior diagonal 2*lam, corner
    diagonal 0); central finite differences for MA(1), where no closed form is
    used, with step ``1e-6 * max(1, |lam|)``.
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
    h = MA_DERIVATIVE_STEP * max(1.0, abs(lam))
    upper = scale_precision("ma1", lam + h, t_len)
    lower = scale_precision("ma1", lam - h, t_len)
    return (upper - lower) / (2.0 * h)


def hw_score(ctx: WishartContext, lam: float) -> float:
    """Wishart Hyvarinen score at dependence parameter lam."""
    c = ctx.half_dof
    lam_prec = scale_precision(ctx.model, lam, ctx.t_len)
    resid = c * ctx.s_inv - 0.5 * lam_prec
    return float(0.5 * np.sum(resid * resid) - c * np.sum(np.diag(ctx.s_inv) ** 2))


def hw_grad(ctx: WishartContext, lam: float, dprec: np.ndarray | None = None) -> float:
    """Derivative of :func:`hw_score` in lam.

    ``dprec`` may supply a precomputed elementwise derivative of the scale
    precision; by default it comes from :func:`precision_derivative`.
    """
    if dprec is None:
        dprec = precision_derivative(ctx.model, lam, ctx.t_len)
    c = ctx.half_dof
    resid = c * ctx.s_inv - 0.5 * scale_precision(ctx.model, lam, ctx.t_len)
    return float(-0.5 * np.sum(resid * dprec))


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
    dprec = precision_derivative(model, lam, t_len)
    return float(0.25 * np.sum(dprec * dprec))


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
    d_psi = precision_derivative(model, lam, t_len) @ scale_precision(model, lam, t_len)
    a = float(np.trace(d_psi))
    b = float(np.sum(d_psi * d_psi.T))
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
