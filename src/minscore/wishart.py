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
few statistics of S^{-1} computed once per fit (:func:`wishart_context`):
for AR(1) its trace, interior-diagonal sum and first off-diagonal sum, for
MA(1) the diagonal of ``U S^{-1} U`` in the DST-I basis that diagonalizes P.
The score is the ``hyv-wishart`` kind of the one sufficient-statistic
objective of :mod:`minscore.scores`.  Each evaluation costs O(1) (AR) or O(T)
(MA), and the derivatives are exact.

The sensitivity of that estimating equation is the deterministic quantity
``K = 0.25 * sum_{i,j} (d lam^{ji} / d lambda)^2``, which for AR(1) is
``(T - 1 + 2 lam^2 (T - 2)) / 2``.  The derivative is linear in S^{-1},
which is inverse-Wishart, so its variance J is exact as well; both come from
:func:`wishart_components`.
"""

from __future__ import annotations

import numpy as np

from .models import (
    _jet_power,
    ar1_precision,
    canonical_model,
    ma1_eigenvalues,
    ma1_precision,
    ma1_sine_transform,
    params_for,
    sample_series,
)
from .scores import EstimatorKind, SeriesObjective

__all__ = [
    "wishart_context",
    "scale_precision",
    "precision_derivative",
    "hw_grad_samples",
    "wishart_components",
]


def wishart_context(s, nu: int, model: str) -> SeriesObjective:
    """The Wishart score of the sum-of-squares matrix S of ``nu`` >= T + 2
    series: a :class:`~minscore.scores.SeriesObjective` of kind
    ``hyv-wishart`` holding the statistics of S^{-1} and, as its offset, the
    part of the score free of lam; no T x T array is kept."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("sum-of-squares matrix contains non-finite values (NaN or inf)")
    l_inv, s_inv = _inverses(s)
    nu, t_len, model = int(nu), s.shape[0], canonical_model(model)
    if nu < t_len + 2:
        raise ValueError(f"Wishart score needs nu >= T + 2; got nu={nu}, T={t_len}")
    c = 0.5 * (nu - t_len - 1)
    offset = 0.5 * c * c * np.sum(s_inv**2) - c * np.sum(np.diag(s_inv) ** 2)
    # the statistics of S^{-1} with <S^{-1}, P(lam)> = stats @ coef(lam)
    if model == "ma1":
        # diag(U S^{-1} U) = diag((L^{-1} U)' (L^{-1} U)), one rotation of L^{-1}
        stats = np.sum(ma1_sine_transform(l_inv) ** 2, axis=0)
    else:
        # interior = trace - both ends, so -s^{11} at T = 1, where P = 1 - lam^2
        diag = np.diag(s_inv)
        stats = np.array([diag.sum(), diag.sum() - diag[0] - diag[-1], np.trace(s_inv, 1)])
    return SeriesObjective(EstimatorKind.HYV_WISHART, model, t_len, stats[None], stats,
                           offset=float(offset), scale=-0.5 * c)


def _inverses(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # L^{-1} of the Cholesky factor S = L L', and S^{-1} = L^{-T} L^{-1} symmetrized
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular sum-of-squares matrix: {exc}") from exc
    s_inv = l_inv.T @ l_inv
    return l_inv, 0.5 * (s_inv + s_inv.T)


def _s_inverse(s: np.ndarray) -> np.ndarray:
    return _inverses(s)[1]


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
    d = np.diag(_jet_power(ma1_eigenvalues(lam, t_len, 1), -1)[1])
    return ma1_sine_transform(ma1_sine_transform(d, axis=0), axis=1)  # U d U


def _derivative_traces(model: str, lam: float, t_len: int) -> tuple[float, float, float]:
    # tr(D P), tr(D P D P) and ||D||_F^2, with P = scale_precision and D its derivative
    if model == "ma1":
        p = _jet_power(ma1_eigenvalues(lam, t_len, 1), -1)  # eigenvalues of P and of D
        dp = p[1] * p[0]
        return float(np.sum(dp)), float(dp @ dp), float(p[1] @ p[1])
    # AR(1) in closed form: D has -1 off the diagonal and 2 lam inside it
    lam2, t = lam * lam, t_len
    if t == 1:  # P = 1 - lam^2, D = -2 lam
        return -2.0 * lam * (1.0 - lam2), 4.0 * lam2 * (1.0 - lam2) ** 2, 4.0 * lam2
    trace = 2.0 * lam * ((t - 2) * (1.0 + lam2) + (t - 1))
    if t == 2:
        square = 2.0 + 2.0 * lam2
    else:
        square = (2.0 * (t - 1) + (30 * t - 58) * lam2 + (34 * t - 78) * lam2 * lam2
                  + 4.0 * (t - 2) * lam2**3)
    return trace, square, 2.0 * (t - 1) + 4.0 * lam2 * (t - 2)


def wishart_components(model: str, lam: float, nu: int, t_len: int) -> tuple[float, float]:
    """Exact variability J and sensitivity K of the Wishart score equation at
    lam when S is Wishart at lam, from one computation of the
    precision-derivative traces they share.

    K = 0.25 * ||D||_F^2, with D the precision derivative, is the expected
    second derivative of the score.  The gradient is ``-c/2 * tr(D S^{-1})``
    plus a constant, and S^{-1} is inverse-Wishart with scale
    Psi = :func:`scale_precision`.  Its second moments (von Rosen 1988,
    Scand. J. Statist. 15) give, with n = nu and p = T,

        J = c^2/4 * [2 a^2 + 2 (n-p-1) b] / ((n-p) (n-p-1)^2 (n-p-3)),

    ``a = tr(D Psi)`` and ``b = tr(D Psi D Psi)``; the gradient has mean zero,
    so J is also its mean square.  Finite only for nu >= T + 4.
    """
    if nu < t_len + 4:
        raise ValueError(
            f"the Wishart sd needs nu >= T + 4; got nu={nu}, T={t_len}"
        )
    c = 0.5 * (nu - t_len - 1)
    a, b, d2 = _derivative_traces(canonical_model(model), lam, t_len)
    m = nu - t_len
    j = c * c / 4.0 * (2.0 * a * a + 2.0 * (m - 1) * b) / (m * (m - 1) ** 2 * (m - 3))
    return j, 0.25 * d2


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

    Each draw is the sum-of-squares matrix of ``nu`` series of length
    ``t_len`` simulated at parameter lam by the model samplers.  A Monte
    Carlo check of the J of :func:`wishart_components`; no fit calls it.  Returns an
    array of ``n_draws`` gradient values.
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
