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
a term free of lambda, with ``P`` the scale precision: the ``hyv-wishart``
kind of the one sufficient-statistic objective, which
:func:`~minscore.scores.wishart_context` builds from a few statistics of S^{-1}.
This module holds the exact information of its estimating equation.

The sensitivity of that estimating equation is the deterministic quantity
``K = 0.25 * sum_{i,j} (d lam^{ji} / d lambda)^2``, which for AR(1) is
``(T - 1 + 2 lam^2 (T - 2)) / 2``.  The derivative is linear in S^{-1},
which is inverse-Wishart, so its variance J is exact as well; both come from
:func:`wishart_components`.  The dense precision, its derivative and a Monte
Carlo draw of the gradient, which check these, are in :mod:`minscore.selfcheck`.
"""

from __future__ import annotations

import numpy as np

from .models import _jet_power, canonical_model, ma1_eigenvalues

__all__ = ["wishart_components"]


def _derivative_traces(model: str, lam: float, t_len: int) -> tuple[float, float, float]:
    # tr(D P), tr(D P D P) and ||D||_F^2, with P the unit-variance scale
    # precision at lam and D its derivative in lam
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
    plus a constant, and S^{-1} is inverse-Wishart with scale Psi, the
    precision of the unit-variance scale matrix.  Its second moments (von Rosen 1988,
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
