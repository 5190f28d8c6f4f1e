"""Objective functions for the four estimators.

Every objective is a loss (lower is better) in the dependence parameter
theta alone, with mean 0 and unit innovation variance known: the full and
consecutive-pairwise kinds are negated log-likelihoods, the other two
Hyvarinen scores.  Every estimate, AR(1) pairwise included, is the minimizer
of its objective.  The dense forms that check these objectives (the Gaussian
Hyvarinen score of a precision matrix, the sigma2-profiled AR(1) pairwise
closed form) are in :mod:`minscore.selfcheck`.

Every objective is a Gaussian quadratic form in the data, so the data enter
only through a few sufficient statistics, and the value in minimization
orientation is ``stats @ coef(theta) + const(theta)``.  One recipe per model
and kind names the reducer of its statistics, shared by the kinds that read
the same ones, and gives the jets of coef and const, read by one of two
evaluators, a polynomial one (AR(1), MA(1) pairwise) and a spectral one (the
other MA(1)):

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
  over series: its data term ``-(c/2) <S^{-1}, P>``, c = (nu - T - 1)/2, is
  -c times the full objective's ``0.5 w P w'`` summed over the rows w of
  L^{-1}, S = Y'Y = L L', so it reads their full statistics, summed, and the
  full coefficients (:func:`wishart_context`); no S^{-1} is formed.

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
series of shape (nu, T), real and finite, and reads it in C order, so every
layout of the same values gives the same bits.  Every objective omits its
terms free of theta, which cannot move the estimate: ``log(2 pi)`` of the
log-likelihoods and the part of the Wishart score that reads S alone
(:func:`minscore.selfcheck.wishart_score`).  So every total is
``pooled @ coef(theta) + rows * const(theta)``.
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
    _real,
    canonical_model,
    ma1_eigenvalues,
    ma1_sine_transform,
    sum_of_squares,
)
from .optimize import Lanes, _lane_jets

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


def min_series_length(kind: EstimatorKind, model: str) -> int:
    """Shortest series length the estimator accepts for the model."""
    return _RECIPES[canonical_model(model), EstimatorKind(kind)][1]


def _real_series(series) -> np.ndarray:
    # a finite (T,) or (nu, T) float array in C order: any layout gives the same bits
    y = _real(series, "series")
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (nu, T) array, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contain non-finite values (NaN or inf)")
    return np.ascontiguousarray(y)


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


# The AR(1) statistics, one half per sign s (+1 first).  With u = 1 - s phi,
# the innovations are d_t - phi d_{t-1} = e_t + s u d_{t-1}, e_t = d_t - s
# d_{t-1}, so full and pairwise read P = sum e_t^2, Q = sum e_t s d_{t-1}, R =
# sum over t < T of d_t^2 and D = d_1^2 (_ar1_full).  The residuals of P y are
# u^2 d_t - (1-u) h_t inside, h_t = s (d_{t-1} + d_{t+1}) - 2 d_t, and u d_t +
# (1-u) g_t at both ends, g_t = d_t - s d_(neighbour), so hyv reads the sums of
# d^2, d h and h^2 inside (A, B, C) and of d^2, d g and g^2 at the ends (E, F,
# G; _ar1_hyv).  The s = -1 half is written over the buffers of the s = +1
# half: x - (-y) = x + y and (-w) - v = -(w + v) are exact in round-to-nearest
# (up to the sign of a zero), so each half has the bits it would have alone.
def _ar1_full(d: np.ndarray) -> np.ndarray:
    prev = d[..., :-1]
    e = d[..., 1:] - prev
    squares = [_dot(prev, prev), d[..., 0] ** 2]  # R and D, free of s
    plus = [_dot(e, e), _dot(e, prev), *squares]
    np.add(d[..., 1:], prev, out=e)
    return np.stack(plus + [_dot(e, e), -_dot(e, prev), *squares], axis=-1)


def _ar1_hyv(d: np.ndarray) -> np.ndarray:
    inner, ends = d[..., 1:-1], d[..., [0, -1]]
    # h = w - 2 d (s = +1), then -h = w + 2 d (s = -1), w = d_{t-1} + d_{t+1}
    w = d[..., :-2] + d[..., 2:]
    h = 2.0 * inner
    np.subtract(w, h, out=h)
    neighbours = d[..., [1, -2]]
    g = ends - neighbours
    plus = [_dot(inner, inner), _dot(inner, h), _dot(h, h),
            _dot(ends, ends), _dot(ends, g), _dot(g, g)]
    np.multiply(inner, 2.0, out=h)
    np.add(w, h, out=h)
    np.add(ends, neighbours, out=g)
    minus = [plus[0], -_dot(inner, h), _dot(h, h), plus[3], _dot(ends, g), _dot(g, g)]
    return np.stack(plus + minus, axis=-1)


def _dst_squares(y: np.ndarray) -> np.ndarray:
    z = ma1_sine_transform(y)
    return np.multiply(z, z, out=z)  # the squared coordinates, in the transform's array


def _wishart_series(y: np.ndarray, model: str) -> np.ndarray:
    y = np.atleast_2d(y)
    return _wishart_row(sum_of_squares(y), len(y), model)


def _wishart_row(s: np.ndarray, nu, model: str) -> np.ndarray:
    # the one row of the Wishart score of a real square S, checks shared
    if not np.all(np.isfinite(s)):
        raise ValueError("sum-of-squares matrix contains non-finite values (NaN or inf)")
    if not np.array_equal(s, s.T):
        raise ValueError(f"S must be symmetric; the largest |S - S'| is {abs(s - s.T).max():g}")
    nu, t_len, model = _check_size(nu, 1, "nu"), s.shape[0], canonical_model(model)
    if nu < t_len + 2:
        raise ValueError(f"Wishart score needs nu >= T + 2; got nu={nu}, T={t_len}")
    try:  # L^{-1} of the Cholesky factor S = L L'
        inverse = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular sum-of-squares matrix: {exc}") from exc
    # -(c/2) <S^{-1}, P> = -c sum over the rows w of L^{-1} of 0.5 w P w'
    stats = _reducer(EstimatorKind.FULL_ML, model)(inverse)
    return np.sum(stats, axis=0) * (-0.5 * (nu - t_len - 1))


def _frobenius_square(t_len: int) -> np.ndarray:
    # ||P||_F^2 = T + a phi^2 + b phi^4 ((1 - phi^2)^2 at T = 1), phi^2 = (1 - u)^2
    a, b = 4.0 * t_len - 6.0, abs(t_len - 2.0)
    return np.array([t_len + a + b, -2.0 * a - 4.0 * b, a + 6.0 * b, -4.0 * b, b])


# Each (model, kind) row names the reducer that turns a checked (nu, T) array
# into the kind's rows of statistics, the shortest series it accepts (T >= 2:
# at T = 1 the law depends on theta only through its square, so the sign is
# not identified), and its jets, read by one of two evaluators (_terms).  A
# spectral row (p, w, f) gives coef = lambda^p / 2 and const = w sum f(lambda)
# over the MA(1) eigenvalues lambda.  A polynomial row (N, w(T), q(T), log)
# works over the powers 0..4 of x: u = 1 - |phi| in AR(1), coef = N x placed
# in the half of phi's sign, or alpha in MA(1) pairwise, coef = N x / q x with
# q x its determinant; const = w log(q x), or w (q x) where log is False.
# MA(1) pairwise is (0.5 (1+alpha^2) (q0 + q_int) - alpha c1) / q x.  AR(1)
# full is half of P + 2 u Q + u^2 R + u (2 - u) D, pairwise half of P + 2 u Q +
# 2 u R, with 1 - phi^2 = u (2 - u); hyv is half of u^4 A - 2 u^2 (1-u) B +
# (1-u)^2 C + u^2 E + 2 u (1-u) F + (1-u)^2 G, the ||P y||^2 of the Hyvarinen
# score 0.5 ||P y||^2 - tr(P), tr(P) = 2 + (T-2) (2 - 2u + u^2).  The Wishart
# kind takes the full coef and ||P||_F^2 / 8 (P's eigenvalues 1/lambda).
_MA1_PAIR_DET = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
_TWO_U_MINUS_SQUARE = np.array([0.0, 2.0, -1.0, 0.0, 0.0])
_AR1_FULL = 0.5 * np.array([[1, 0, 0, 0], [0, 2, 0, 2], [0, 0, 1, -1], [0] * 4, [0] * 4])
_AR1_HYV = 0.5 * np.array([[0, 0, 1, 0, 0, 1], [0, 0, -2, 0, 2, -2], [0, -2, 1, 1, -2, 1],
                           [0, 2, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
_RECIPES = {
    ("ma1", EstimatorKind.FULL_ML): (_dst_squares, 2, -1, 0.5, _jet_log),
    ("ma1", EstimatorKind.HYV_UNIVARIATE): (
        _dst_squares, 2, -2, -1.0, functools.partial(_jet_power, p=-1)),
    ("ma1", EstimatorKind.HYV_WISHART): (
        functools.partial(_wishart_series, model="ma1"), 2, -1, 0.125,
        functools.partial(_jet_power, p=-2)),
    ("ma1", EstimatorKind.PAIRWISE_ML): (
        _lag_sums, 2, np.array([[0.5, 0.5, 0], [0, 0, -1], [0.5, 0.5, 0], [0] * 3, [0] * 3]),
        lambda t_len: 0.5 * (t_len - 1), lambda t_len: _MA1_PAIR_DET, True),
    ("ar1", EstimatorKind.FULL_ML): (
        _ar1_full, 2, _AR1_FULL, lambda t_len: -0.5, lambda t_len: _TWO_U_MINUS_SQUARE, True),
    ("ar1", EstimatorKind.PAIRWISE_ML): (
        _ar1_full, 2, 0.5 * np.array([[1, 0, 0, 0], [0, 2, 2, 0], [0] * 4, [0] * 4, [0] * 4]),
        lambda t_len: -0.5 * (t_len - 1), lambda t_len: _TWO_U_MINUS_SQUARE, True),
    ("ar1", EstimatorKind.HYV_UNIVARIATE): (
        _ar1_hyv, 3, _AR1_HYV, lambda t_len: -1.0,
        lambda t_len: np.array([2.0 * t_len - 2.0, 4.0 - 2.0 * t_len, t_len - 2.0, 0, 0]), False),
    ("ar1", EstimatorKind.HYV_WISHART): (
        functools.partial(_wishart_series, model="ar1"), 2, _AR1_FULL, lambda t_len: 0.125,
        _frobenius_square, False),
}


def _terms(kind: EstimatorKind, model: str, t_len: int, theta, order: int = 0):
    # jets (coef, const) of one series' objective from its recipe, minimization
    # orientation, mu = 0 and sigma2 = 1: row r (order + 1 rows) is the r-th
    # theta derivative, stats @ coef[r] + const[r].  An array theta adds its
    # shape after the jet axis, so a whole grid costs one call.
    recipe = _RECIPES[model, kind][2:]
    if len(recipe) == 3:  # spectral
        # const first, coef scaled in place: one jet besides lambda at a time
        power, weight, f = recipe
        lam = ma1_eigenvalues(theta, t_len, order)
        const, coef = weight * f(lam).sum(axis=-1), _jet_power(lam, power)
        coef *= 0.5
        return coef, const
    num, weight, poly, log = recipe
    if model == "ar1":
        negative = np.asarray(theta) < 0
        x = _power_jets(1.0 - np.abs(theta), order)
        if order:  # the jets are in theta, and du/dtheta = -sign(theta)
            x[1::2] *= np.where(negative, 1.0, -1.0)[..., None]
        q = _contract(x, poly(t_len))
        # one contraction, placed in the half of theta's sign; the other is 0
        half = _contract(x, num)
        width = half.shape[-1]
        coef = np.zeros(half.shape[:-1] + (2 * width,))
        np.copyto(coef[..., :width], half, where=~negative[..., None])
        np.copyto(coef[..., width:], half, where=negative[..., None])
    else:  # MA(1) pairwise, over its determinant q x
        x = _power_jets(theta, order)
        q = _contract(x, poly(t_len))
        coef = _jet_product(_contract(x, num), _jet_power(q, -1)[..., None])
    return coef, weight(t_len) * (_jet_log(q) if log else q)


@dataclass(frozen=True)
class SeriesObjective:
    """An objective reduced to sufficient statistics (:func:`series_objective`,
    :func:`wishart_context`); no method reads the data.  It sums the
    objectives of ``rows`` rows of statistics, row i with r-th derivative
    ``stats[i] . coef[r] + const[r]``.  A
    :class:`~minscore.inference.SeriesReduction` of more rows than statistics
    keeps their second moments ``moments = stats' stats`` in place of
    ``stats``: they give a fit's J (its K reads ``pooled`` alone either way),
    but no per-row derivatives.  The total and the derivatives do the
    arithmetic of one lane of :func:`objective_lanes`, so they give the
    values a fit sees to the bit."""

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
        value = _lane_jets(self.pooled, self.rows, coef[0], const[0])
        return value if theta.ndim else float(value[0])

    def derivatives(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact first and second theta-derivatives of each row's objective."""
        if self.stats is None:
            raise ValueError(f"per-row derivatives need the rows, and this objective keeps "
                             f"only the second moments of its {self.rows} rows (fewer floats); "
                             f"series_objective of the series keeps them")
        coef, const = _terms(self.kind, self.model, self.t_len, np.atleast_1d(float(theta)), 2)
        return tuple(self.stats @ coef[r, 0] + const[r, 0] for r in (1, 2))


def _reducer(kind: EstimatorKind, model: str):
    return _RECIPES[model, kind][0]  # one object for every kind of a family


def _objective(kind: EstimatorKind, model: str, t_len: int, stats) -> SeriesObjective:
    # the objective of a reducer's rows; one row is its own pooled sum
    stats = np.atleast_2d(stats)
    pooled = stats[0] if len(stats) == 1 else np.sum(stats, axis=0)
    return SeriesObjective(kind, model, t_len, stats, pooled, len(stats))


def series_objective(series, kind: EstimatorKind, model: str) -> SeriesObjective:
    """Reduce a (nu, T) series matrix, or one series, to its sufficient
    statistics for the objective (one pass over the data); for the Wishart
    kind, those of :func:`wishart_context` of S = Y'Y, with its checks."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    y, min_t = _real_series(series), min_series_length(kind, model)
    if y.shape[-1] < min_t:
        raise ValueError(f"need series length >= {min_t}, got {y.shape[-1]}")
    return _objective(kind, model, y.shape[-1], _reducer(kind, model)(y))


def wishart_context(s, nu: int, model: str) -> SeriesObjective:
    """The Wishart score of the real symmetric sum-of-squares matrix S of
    ``nu`` >= T + 2 series, less its part free of theta: a
    :class:`SeriesObjective` of kind ``hyv-wishart`` whose one row is the
    full family's statistics of the rows of L^{-1}, S = L L', summed and times
    -c, c = (nu - T - 1)/2.  It forms no S^{-1} and keeps no T x T array; S is
    factored only once S and nu pass their checks."""
    s = _real(s, "S")
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"S must be a square matrix, got shape {s.shape}")
    row = _wishart_row(s, nu, model)
    return _objective(EstimatorKind.HYV_WISHART, canonical_model(model), len(s), row)


def objective_lanes(objectives) -> Lanes:
    """The :class:`~minscore.optimize.Lanes` of :class:`SeriesObjective` s of
    one kind, model and series length: lane i is ``objectives[i].total``."""
    args = {(o.kind, o.model, o.t_len) for o in objectives}
    if len(args) != 1:
        raise ValueError(f"lanes need objectives of one kind, model and length, got {args}")
    return Lanes(functools.partial(_terms, *args.pop()), np.stack([o.pooled for o in objectives]),
                 np.array([o.rows for o in objectives], dtype=float))
