"""Objective functions for the four estimators.

Every objective is a loss (lower is better) in the dependence parameter
theta alone, with mean 0 and unit innovation variance known: the full and
consecutive-pairwise kinds are negated log-likelihoods, the other two
Hyvarinen scores.  Every estimate, AR(1) pairwise included, is the minimizer
of its objective.  The dense forms that
check these objectives (the Gaussian Hyvarinen score of a precision matrix,
the sigma2-profiled AR(1) pairwise closed form) are in
:mod:`minscore.selfcheck`.

Every objective is a Gaussian quadratic form in the data, so the data enter
only through a few sufficient statistics, and the value in minimization
orientation is ``stats @ coef(theta) + const(theta)``:

- AR(1), every kind: sums of squares and products of each series and of its
  first (full, pairwise) or second (``hyv``) differences, ``d_t - d_{t-1}``
  for phi >= 0 and ``d_t + d_{t-1}`` for phi < 0; the coefficients are
  polynomials in ``u = 1 - |phi|`` (degree 4 for ``hyv``).  Each statistic
  is at most the size of the objective as ``|phi| -> 1``, where plain lag sums
  grow as ``1/(1 - phi^2)`` and would cancel.
- MA(1) pairwise: three lag sums (all squares, interior squares and lag-1
  products); the coefficients are ratios of polynomials in alpha.
- MA(1) full and ``hyv``: the squared coordinates ``z = y U`` of each series
  in the DST-I basis that diagonalizes every MA(1) covariance, one product
  with a cached U for T <= 256 or nu >= T series, else an FFT per series
  (:func:`~minscore.models.ma1_sine_transform`); with eigenvalues ``lambda``,
  full is ``0.5 * sum(z^2/lambda + log lambda)`` and ``hyv`` is
  ``0.5 * sum(z^2/lambda^2) - sum(1/lambda)``, O(T) per series and theta.
- The Wishart score (``hyv-wishart``, see :mod:`minscore.wishart`) is no sum
  over series: it reads one row of statistics of S^{-1}, S = Y'Y
  (:func:`wishart_context`), for AR(1) its trace, interior-diagonal sum and
  first off-diagonal sum, for MA(1) the diagonal of ``U S^{-1} U``, each
  times -c/2 with c = (nu - T - 1)/2.

:func:`series_objective` reduces the series once, for any kind; its total and
the per-series first and second derivatives at any theta then cost no pass over
the data, and the derivatives are exact (jets, see :mod:`minscore.models`).
The total also takes an array of theta and evaluates all of it in one call,
and :func:`objective_lanes` stacks the objectives of many datasets as the
lanes of one minimization (:mod:`minscore.optimize`).  The jets are
recomputed at every call.  Every small contraction in them is a product
summed along one axis (:func:`_contract`), so a theta's jets carry the same
bits whatever the shape of the array it comes in.

:func:`series_objective` accepts a single series of shape (T,) or a stack of
series of shape (nu, T).  Every objective omits its terms free of theta, which
cannot move the estimate: ``log(2 pi)`` of the log-likelihoods and the part of
the Wishart score that reads S alone (:func:`minscore.selfcheck.wishart_score`).
So every total is ``pooled @ coef(theta) + rows * const(theta)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (
    _check_size,
    _jet_log,
    _jet_power,
    _jet_product,
    _power_jets,
    canonical_model,
    ma1_eigenvalues,
    ma1_sine_transform,
    sum_of_squares,
)
from .optimize import Lanes

__all__ = [
    "EstimatorKind",
    "DegenerateDataError",
    "SeriesObjective",
    "series_objective",
    "wishart_context",
    "objective_lanes",
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


def _as_series(y, model: str, kind: EstimatorKind) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    min_t = min_series_length(kind, model)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (nu, T) array, got shape {y.shape}")
    if y.shape[-1] < min_t:
        raise ValueError(f"need series length >= {min_t}, got {y.shape[-1]}")
    return y


# kinds whose objectives read the statistics of another kind: AR(1) pairwise
# reads the first differences of full, MA(1) hyv the DST-I squares of full
_SHARED_STATS = {
    ("ar1", EstimatorKind.PAIRWISE_ML): EstimatorKind.FULL_ML,
    ("ma1", EstimatorKind.HYV_UNIVARIATE): EstimatorKind.FULL_ML,
}

# MA(1) pairwise: the numerator of
# (0.5 (1+alpha^2) (q0 + q_int) - alpha c1) / (1 + alpha^2 + alpha^4), rows =
# powers 0..4 of alpha, columns = the statistics of _lag_sums.
_MA1_PAIR_COEF = np.array([[0.5, 0.5, 0], [0, 0, -1], [0.5, 0.5, 0], [0] * 3, [0] * 3])
_MA1_PAIR_DET = np.array([1.0, 0.0, 1.0, 0.0, 1.0])

# AR(1) objectives in u = 1 - s phi, with s = sign(phi); rows = powers 0..4 of
# u, columns = the statistics of one half of _ar1_sums, the half of s.  Full
# is half of P + 2 u Q + u^2 R + u (2 - u) D and pairwise half of
# P + 2 u Q + 2 u R; hyv is half of u^4 A - 2 u^2 (1-u) B + (1-u)^2 C + u^2 E
# + 2 u (1-u) F + (1-u)^2 G, the residual sum ||P y||^2 of the Hyvarinen
# score 0.5 ||P y||^2 - tr(P) with P the precision.
_AR1_HALF_COEF = {
    EstimatorKind.FULL_ML: 0.5 * np.array(
        [[1, 0, 0, 0], [0, 2, 0, 2], [0, 0, 1, -1], [0] * 4, [0] * 4]),
    EstimatorKind.PAIRWISE_ML: 0.5 * np.array(
        [[1, 0, 0, 0], [0, 2, 2, 0], [0] * 4, [0] * 4, [0] * 4]),
    EstimatorKind.HYV_UNIVARIATE: 0.5 * np.array([
        [0, 0, 1, 0, 0, 1],
        [0, 0, -2, 0, 2, -2],
        [0, -2, 1, 1, -2, 1],
        [0, 2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ]),
}
_TWO_U_MINUS_SQUARE = np.array([0.0, 2.0, -1.0, 0.0, 0.0])  # 1 - phi^2 = u (2 - u)

# Wishart score on AR(1): <M, P(phi)> = trace + phi^2 * interior - 2 phi *
# off-diagonal, rows = powers 0..2 of phi, columns = those statistics of M
_AR1_PRECISION_COEF = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 1.0, 0.0]])


def _dot(a, b):
    return np.einsum("...t,...t->...", a, b)


def _contract(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    # x @ c for x of shape (..., k) and c of shape (k,) or (k, m), summed
    # along k in one order for every shape of x (a matrix product may change
    # its summation order with the number of rows of x)
    if c.ndim == 1:
        return np.sum(x * c, axis=-1)
    return np.sum(x[..., None, :] * c.T, axis=-1)


def _lag_sums(d: np.ndarray) -> np.ndarray:
    # q0 = sum d_t^2, q_int = sum over t = 2..T-1 of d_t^2, c1 = sum d_t d_{t-1}
    inner = d[..., 1:-1]
    return np.stack([_dot(d, d), _dot(inner, inner), _dot(d[..., 1:], d[..., :-1])], axis=-1)


def _ar1_sums(d: np.ndarray, kind: EstimatorKind) -> np.ndarray:
    # One half per sign s (+1 first).  With u = 1 - s phi, the innovations
    # are d_t - phi d_{t-1} = e_t + s u d_{t-1}, e_t = d_t - s d_{t-1}, so full
    # and pairwise read P = sum e_t^2, Q = sum e_t s d_{t-1}, R = sum over
    # t < T of d_t^2 and D = d_1^2.  The residuals of P y are u^2 d_t - (1-u) h_t
    # inside, h_t = s (d_{t-1} + d_{t+1}) - 2 d_t, and u d_t + (1-u) g_t at
    # both ends, g_t = d_t - s d_(neighbour), so hyv reads the sums of d^2,
    # d h and h^2 inside (A, B, C) and of d^2, d g and g^2 at the ends (E, F,
    # G).  For s = sign(phi) no term outgrows the objective as |phi| -> 1,
    # where plain lag sums grow as 1/(1 - phi^2) and cancel.
    inner, ends, prev = d[..., 1:-1], d[..., [0, -1]], d[..., :-1]
    hyv = kind is EstimatorKind.HYV_UNIVARIATE
    # the sums free of s: A and E for hyv, R and D for full and pairwise
    squares = (_dot(inner, inner), _dot(ends, ends)) if hyv else (_dot(prev, prev), d[..., 0] ** 2)
    halves = []
    for s in (1.0, -1.0):
        if hyv:
            h = s * (d[..., :-2] + d[..., 2:]) - 2.0 * inner
            g = ends - s * d[..., [1, -2]]
            stats = [squares[0], _dot(inner, h), _dot(h, h),
                     squares[1], _dot(ends, g), _dot(g, g)]
        else:
            e = d[..., 1:] - s * prev
            stats = [_dot(e, e), s * _dot(e, prev), *squares]
        halves.append(np.stack(stats, axis=-1))
    return np.concatenate(halves, axis=-1)


def _terms(kind: EstimatorKind, model: str, t_len: int, theta, order: int = 0):
    # jets (coef, const) of one series' objective, minimization orientation,
    # mu = 0 and sigma2 = 1: row r (order + 1 rows) is the r-th theta
    # derivative, so the objective's r-th derivative is stats @ coef[r] + const[r].
    # An array theta adds its shape after the jet axis, so a whole grid of
    # theta costs one call: coef[r] is then (*theta.shape, m).  The Wishart
    # coef gives <M, P(theta)> from the statistics of M = -c/2 S^{-1}, P the
    # scale precision; const is ||P||_F^2 / 8.
    if model == "ma1" and kind is not EstimatorKind.PAIRWISE_ML:
        # full and hyv take their constant before their coefficients and scale
        # those in place: one jet besides lambda is held at a time (peak memory)
        lam = ma1_eigenvalues(theta, t_len, order)
        if kind is EstimatorKind.HYV_WISHART:
            p = _jet_power(lam, -1)  # the eigenvalues of P
            return p, 0.125 * _jet_product(p, p).sum(axis=-1)
        if kind is EstimatorKind.FULL_ML:
            const, coef = 0.5 * _jet_log(lam).sum(axis=-1), _jet_power(lam, -1)
        else:
            const, coef = -_jet_power(lam, -1).sum(axis=-1), _jet_power(lam, -2)
        coef *= 0.5
        return coef, const
    if kind is EstimatorKind.HYV_WISHART:
        x = _power_jets(theta, order)
        # the AR(1) precision has diagonal 1 + theta^2 i_t, with i_t = 1
        # inside, 0 at the two ends and -1 when T = 1, and off-diagonal -theta
        norm = _contract(x, np.array([t_len, 0.0, 4.0 * t_len - 6.0, 0.0, abs(t_len - 2.0)]))
        return _contract(x[..., :3], _AR1_PRECISION_COEF), 0.125 * norm
    if model == "ma1":
        x = _power_jets(theta, order)
        det = _contract(x, _MA1_PAIR_DET)
        return (_jet_product(_contract(x, _MA1_PAIR_COEF), _jet_power(det, -1)[..., None]),
                0.5 * (t_len - 1) * _jet_log(det))
    negative = np.asarray(theta) < 0
    u = _power_jets(1.0 - np.abs(theta), order)
    if order:
        # the jets are in theta, and du/dtheta = -sign(theta)
        u[1::2] *= np.where(negative, 1.0, -1.0)[..., None]
    # one contraction, placed in the statistics of each theta's own sign; the
    # other sign's half stays 0
    half = _contract(u, _AR1_HALF_COEF[kind])
    width = half.shape[-1]
    coef = np.zeros(half.shape[:-1] + (2 * width,))
    np.copyto(coef[..., :width], half, where=~negative[..., None])
    np.copyto(coef[..., width:], half, where=negative[..., None])
    if kind is EstimatorKind.HYV_UNIVARIATE:
        # the trace of the precision, 2 + (T-2) (1 + phi^2), with 1 + phi^2 = 2 - 2u + u^2
        trace = np.array([2.0 * t_len - 2.0, 4.0 - 2.0 * t_len, t_len - 2.0, 0, 0])
        return coef, -_contract(u, trace)
    pairs = 1 if kind is EstimatorKind.FULL_ML else t_len - 1
    return coef, -0.5 * pairs * _jet_log(_contract(u, _TWO_U_MINUS_SQUARE))


@dataclass(frozen=True)
class SeriesObjective:
    """An objective reduced to sufficient statistics (:func:`series_objective`,
    :func:`wishart_context`); no method reads the data.  It sums the
    objectives of ``rows`` rows of statistics, row i with r-th derivative
    ``stats[i] . coef[r] + const[r]``.  A
    :class:`~minscore.inference.SeriesReduction` of more rows than statistics
    keeps their second moments ``moments = stats' stats`` in place of
    ``stats``: they give the total and the Godambe sums of a fit, but no
    per-row derivatives.  The total and the derivatives do the arithmetic of
    one lane of :func:`objective_lanes`, so they give the values a fit sees to
    the bit."""

    kind: EstimatorKind
    model: str
    t_len: int
    stats: np.ndarray | None  # (rows, m), None where only the moments are kept
    pooled: np.ndarray  # (m,), summed over the rows
    rows: int
    moments: np.ndarray | None = None  # (m, m), the sum of each row's outer product

    def total(self, theta):
        """``pooled . coef[0] + rows * const[0]`` at theta: a float for a scalar
        theta, one value per entry for an array (a whole grid in one call)."""
        theta = np.asarray(theta, dtype=float)
        coef, const = _terms(self.kind, self.model, self.t_len, np.atleast_1d(theta))
        value = np.sum(self.pooled * coef[0], axis=-1) + self.rows * const[0]
        return value if theta.ndim else float(value[0])

    def derivatives(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact first and second theta-derivatives of each row's objective."""
        coef, const = _terms(self.kind, self.model, self.t_len, np.atleast_1d(float(theta)), 2)
        return self.jet_derivatives(coef[:, 0], const[:, 0])

    def jet_derivatives(self, coef: np.ndarray, const: np.ndarray):
        """First and second derivatives of each row's objective from the
        order-2 jets ``(coef, const)`` of one theta, of shapes (3, m) and (3,)."""
        if self.stats is None:
            raise ValueError(f"per-row derivatives need the rows, and this objective keeps "
                             f"only the second moments of its {self.rows} rows (fewer floats); "
                             f"series_objective of the series keeps them")
        return tuple(self.stats @ coef[r] + const[r] for r in (1, 2))


def series_objective(series, kind: EstimatorKind, model: str) -> SeriesObjective:
    """Reduce a (nu, T) series matrix, or one series, to its sufficient
    statistics for the objective (one pass over the data); for the Wishart
    kind, :func:`wishart_context` of S = Y'Y."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    y = _as_series(series, model, kind)
    if kind is EstimatorKind.HYV_WISHART:
        y2 = np.atleast_2d(y)
        return wishart_context(sum_of_squares(y2), len(y2), model)
    if model == "ar1":
        stats = _ar1_sums(y, kind)
    elif kind is EstimatorKind.PAIRWISE_ML:
        stats = _lag_sums(y)
    else:
        stats = ma1_sine_transform(y)
        stats *= stats  # the squared coordinates, in the transform's array
    stats = np.atleast_2d(stats)
    return SeriesObjective(kind, model, y.shape[-1], stats, np.sum(stats, axis=0), len(stats))


def wishart_context(s, nu: int, model: str) -> SeriesObjective:
    """The Wishart score of the sum-of-squares matrix S of ``nu`` >= T + 2
    series, less its part free of theta: a :class:`SeriesObjective` of kind
    ``hyv-wishart`` whose one row of statistics is those of S^{-1} times
    -c/2, c = (nu - T - 1)/2; no T x T array is kept.  S is inverted only
    once it and nu pass their bounds."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("sum-of-squares matrix contains non-finite values (NaN or inf)")
    nu, t_len, model = _check_size(nu, 1, "nu"), s.shape[0], canonical_model(model)
    if nu < t_len + 2:
        raise ValueError(f"Wishart score needs nu >= T + 2; got nu={nu}, T={t_len}")
    # the statistics of S^{-1} with <S^{-1}, P(theta)> = stats @ coef(theta)
    if model == "ma1":
        # diag(U S^{-1} U) = diag((L^{-1} U)' (L^{-1} U)), one rotation of L^{-1}
        stats = np.sum(ma1_sine_transform(_cholesky_inverse(s)) ** 2, axis=0)
    else:
        # interior = trace - both ends, so -s^{11} at T = 1, where P = 1 - theta^2
        s_inv = _s_inverse(s)
        diag = np.diag(s_inv)
        stats = np.array([diag.sum(), diag.sum() - diag[0] - diag[-1], np.trace(s_inv, 1)])
    # the score is -c/2 <S^{-1}, P> + ||P||_F^2 / 8, c = (nu - T - 1)/2, and terms free of theta
    stats = -0.25 * (nu - t_len - 1) * stats
    return SeriesObjective(EstimatorKind.HYV_WISHART, model, t_len, stats[None], stats, 1)


def _cholesky_inverse(s: np.ndarray) -> np.ndarray:
    # L^{-1} of the Cholesky factor S = L L'
    try:
        return np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular sum-of-squares matrix: {exc}") from exc


def _s_inverse(s: np.ndarray) -> np.ndarray:
    # S^{-1} = L^{-T} L^{-1}, symmetrized
    l_inv = _cholesky_inverse(s)
    s_inv = l_inv.T @ l_inv
    return 0.5 * (s_inv + s_inv.T)


def objective_lanes(objectives) -> Lanes:
    """The :class:`~minscore.optimize.Lanes` of :class:`SeriesObjective` s of
    one kind, model and series length: lane i is ``objectives[i].total``."""
    args = {(o.kind, o.model, o.t_len) for o in objectives}
    if len(args) != 1:
        raise ValueError(f"lanes need objectives of one kind, model and length, got {args}")
    return Lanes(functools.partial(_terms, *args.pop()), np.stack([o.pooled for o in objectives]),
                 np.array([o.rows for o in objectives], dtype=float))
