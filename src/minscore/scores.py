"""Objective functions for the four estimators.

Log-likelihoods (full and consecutive-pairwise) are returned in their natural
orientation (higher is better); Hyvarinen scores are losses (lower is better).
:func:`score_per_series` puts the three per-series kinds on a common
minimization footing by negating the log-likelihoods.

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
  with a cached U for nu >= T series, else an FFT per series
  (:func:`~minscore.models.ma1_sine_transform`); with eigenvalues ``lambda``,
  full is ``0.5 * sum(z^2/lambda + log lambda)`` and ``hyv`` is
  ``0.5 * sum(z^2/lambda^2) - sum(1/lambda)``, O(T) per series and theta.
- The Wishart score (``hyv-wishart``) is no sum over series: it reads one row
  of statistics of S^{-1}, S = Y'Y (see :mod:`minscore.wishart`).

:func:`series_objective` reduces the series once; its total and the
per-series first and second derivatives at any theta then cost no pass over
the data, and the derivatives are exact (jets, see :mod:`minscore.models`).
The total also takes an array of theta and evaluates all of it in one call,
and :func:`objective_lanes` stacks the objectives of many datasets as the
lanes of one minimization (:mod:`minscore.optimize`); the grid's jets are
cached.  Every small contraction in the jets is a product summed along one
axis (:func:`_contract`), so a theta's jets carry the same bits whatever the
shape of the array it comes in.

Every evaluator accepts a single series of shape (T,) or a stack of series of
shape (nu, T) and broadcasts over the leading axis.  Additive constants are
dropped exactly where the closed-form displays drop them, so objective values
are comparable within one estimator but not across estimators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (
    Ar1Params,
    Ma1Params,
    _jet_log,
    _jet_power,
    _jet_product,
    _power_jets,
    canonical_model,
    ma1_eigenvalues,
    ma1_sine_transform,
    params_for,
)
from .optimize import GRID_POINTS, Lanes

__all__ = [
    "EstimatorKind",
    "DegenerateDataError",
    "SeriesObjective",
    "ar1_full_loglik",
    "ar1_pairwise_loglik",
    "ar1_pairwise_closed_form",
    "ar1_hyvarinen",
    "gaussian_hyvarinen",
    "ma1_full_loglik",
    "ma1_pairwise_loglik",
    "ma1_hyvarinen",
    "score_per_series",
    "series_objective",
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


def _as_series(y, model: str | None = None, kind: EstimatorKind | None = None) -> np.ndarray:
    # without a model, any length is accepted (the generic Gaussian score)
    y = np.asarray(y, dtype=float)
    min_t = 1 if model is None else _MIN_SERIES_LENGTH.get((model, kind), _MIN_IDENTIFIED_LENGTH)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (nu, T) array, got shape {y.shape}")
    if y.shape[-1] < min_t:
        raise ValueError(f"need series length >= {min_t}, got {y.shape[-1]}")
    return y


# MA(1) pairwise: the numerator of
# (0.5 (1+alpha^2) (q0 + q_int) - alpha c1) / (1 + alpha^2 + alpha^4), rows =
# powers 0..4 of alpha, columns = the statistics of _lag_sums.
_MA1_PAIR_COEF = np.array([[0.5, 0.5, 0], [0, 0, -1], [0.5, 0.5, 0], [0] * 3, [0] * 3])
_MA1_PAIR_DET = np.array([1.0, 0.0, 1.0, 0.0, 1.0])

# AR(1) objectives in u = 1 - s phi, with s = sign(phi); rows = powers 0..4 of
# u, columns = the statistics of _ar1_sums for s = +1, then for s = -1.  Full
# is half of P + 2 u Q + u^2 R + u (2 - u) D and pairwise half of
# P + 2 u Q + 2 u R; hyv is half of u^4 A - 2 u^2 (1-u) B + (1-u)^2 C + u^2 E
# + 2 u (1-u) F + (1-u)^2 G, the residual sum ||P y||^2 (see ar1_hyvarinen).
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
_AR1_COEF = {
    (kind, sign): np.concatenate([half, 0 * half] if sign > 0 else [0 * half, half], axis=1)
    for kind, half in _AR1_HALF_COEF.items() for sign in (1, -1)
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


def _spectral(model: str, kind: EstimatorKind) -> bool:
    return model == "ma1" and kind in (EstimatorKind.FULL_ML, EstimatorKind.HYV_UNIVARIATE)


def _series_stats(y, kind: EstimatorKind, model: str) -> np.ndarray:
    # sufficient statistics of each series for the objective: shape (m,) for
    # one series, (nu, m) for a stack
    if kind is EstimatorKind.HYV_WISHART:
        raise ValueError("the Wishart score is not a per-series objective; see minscore.wishart")
    y = _as_series(y, model, kind)
    if _spectral(model, kind):
        z = ma1_sine_transform(y)
        return z * z
    if model == "ar1":
        return _ar1_sums(y, kind)
    return _lag_sums(y)


def _terms(kind: EstimatorKind, model: str, t_len: int, theta, order: int = 0):
    # jets (coef, const) of one series' objective, minimization orientation,
    # mu = 0 and sigma2 = 1: row r (order + 1 rows) is the r-th theta
    # derivative, so the objective's r-th derivative is stats @ coef[r] + const[r].
    # An array theta adds its shape after the jet axis, so a whole grid of
    # theta costs one call: coef[r] is then (*theta.shape, m).  The Wishart
    # coef gives <S^{-1}, P(theta)>, P the scale precision; const is ||P||_F^2 / 8.
    if kind is EstimatorKind.HYV_WISHART:
        if model == "ma1":
            p = _jet_power(ma1_eigenvalues(theta, t_len, order), -1)  # eigenvalues of P
            return p, 0.125 * _jet_product(p, p).sum(axis=-1)
        x = _power_jets(theta, order)
        # the AR(1) precision has diagonal 1 + theta^2 i_t, with i_t = 1
        # inside, 0 at the two ends and -1 when T = 1, and off-diagonal -theta
        norm = _contract(x, np.array([t_len, 0.0, 4.0 * t_len - 6.0, 0.0, abs(t_len - 2.0)]))
        return _contract(x[..., :3], _AR1_PRECISION_COEF), 0.125 * norm
    if _spectral(model, kind):
        lam = ma1_eigenvalues(theta, t_len, order)
        if kind is EstimatorKind.FULL_ML:
            return 0.5 * _jet_power(lam, -1), 0.5 * _jet_log(lam).sum(axis=-1)
        return 0.5 * _jet_power(lam, -2), -_jet_power(lam, -1).sum(axis=-1)
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
    coef = np.where(negative[..., None], _contract(u, _AR1_COEF[kind, -1]),
                    _contract(u, _AR1_COEF[kind, 1]))
    if kind is EstimatorKind.HYV_UNIVARIATE:
        # the trace of the precision, 2 + (T-2) (1 + phi^2), with 1 + phi^2 = 2 - 2u + u^2
        trace = np.array([2.0 * t_len - 2.0, 4.0 - 2.0 * t_len, t_len - 2.0, 0, 0])
        return coef, -_contract(u, trace)
    pairs = 1 if kind is EstimatorKind.FULL_ML else t_len - 1
    return coef, -0.5 * pairs * _jet_log(_contract(u, _TWO_U_MINUS_SQUARE))


@functools.lru_cache(maxsize=8)
def _grid_jets(args: tuple, seeds: bytes) -> tuple:
    # order-0 jets of the minimizer's grid, read-only as every caller shares them
    jets = _terms(*args, np.frombuffer(seeds))
    for jet in jets:
        jet.flags.writeable = False
    return jets


def _order0_jets(args: tuple, theta) -> tuple:
    # _terms(*args, theta), cached for the grid of GRID_POINTS seeds that
    # every fit of one (kind, model, T) scans
    if isinstance(theta, np.ndarray) and theta.shape == (GRID_POINTS,):
        return _grid_jets(args, np.asarray(theta, dtype=float).tobytes())
    return _terms(*args, theta)


def _lane_terms(args: tuple, theta, order: int) -> tuple:
    # the jet function of objective_lanes: the cached grid for order 0
    return _order0_jets(args, theta) if order == 0 else _terms(*args, theta, order)


@dataclass(frozen=True)
class SeriesObjective:
    """An objective reduced to sufficient statistics (:func:`series_objective`,
    :func:`~minscore.wishart.wishart_context`); no method reads the data.  Row
    i has r-th derivative ``scale * (stats[i] . coef[r]) + const[r]`` and the
    total adds ``offset``; per-series kinds keep ``offset = 0, scale = 1``.
    The methods do the arithmetic of one lane of :func:`objective_lanes`, so
    they give the values a fit sees to the bit."""

    kind: EstimatorKind
    model: str
    t_len: int
    stats: np.ndarray  # (nu, m)
    pooled: np.ndarray  # (m,), summed over the rows
    offset: float = 0.0
    scale: float = 1.0

    def total(self, theta):
        """Sum of the objectives of the rows at theta: a float for a scalar
        theta, one value per entry for an array (a whole grid in one call)."""
        theta = np.asarray(theta, dtype=float)
        coef, const = _order0_jets((self.kind, self.model, self.t_len), np.atleast_1d(theta))
        value = (self.scale * np.sum(self.pooled * coef[0], axis=-1)
                 + len(self.stats) * const[0] + self.offset)
        return value if theta.ndim else float(value[0])

    def derivatives(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact first and second theta-derivatives of each row's objective."""
        coef, const = _terms(self.kind, self.model, self.t_len, np.atleast_1d(float(theta)), 2)
        return self.jet_derivatives(coef[:, 0], const[:, 0])

    def jet_derivatives(self, coef: np.ndarray, const: np.ndarray):
        """First and second derivatives of each row's objective from the
        order-2 jets ``(coef, const)`` of one theta, of shapes (3, m) and (3,)."""
        return tuple(self.scale * (self.stats @ coef[r]) + const[r] for r in (1, 2))


def series_objective(series, kind: EstimatorKind, model: str) -> SeriesObjective:
    """Reduce a (nu, T) series matrix, or one series, to its sufficient
    statistics for the objective (one pass over the data)."""
    kind = EstimatorKind(kind)
    model = canonical_model(model)
    stats = np.atleast_2d(_series_stats(series, kind, model))
    t_len = np.shape(series)[-1]
    return SeriesObjective(kind, model, t_len, stats, np.sum(stats, axis=0))


def objective_lanes(objectives) -> Lanes:
    """The :class:`~minscore.optimize.Lanes` of :class:`SeriesObjective` s of
    one kind, model and series length: lane i is ``objectives[i].total``."""
    args = {(o.kind, o.model, o.t_len) for o in objectives}
    if len(args) != 1:
        raise ValueError(f"lanes need objectives of one kind, model and length, got {args}")
    return Lanes(
        functools.partial(_lane_terms, args.pop()),
        np.stack([o.pooled for o in objectives]),
        np.array([o.offset for o in objectives]),
        np.array([o.scale for o in objectives]),
        np.array([len(o.stats) for o in objectives], dtype=float),
    )


def _evaluate(y, params, model: str, kind: EstimatorKind):
    # objective of series y under params, minimization orientation; sigma2
    # rescales the statistics and adds the log-determinant of the scale
    y = np.asarray(y, dtype=float)
    theta = params.phi if model == "ar1" else params.alpha
    stats = _series_stats(y - params.mu, kind, model) / params.sigma2
    coef, const = _terms(kind, model, y.shape[-1], theta)
    value = stats @ coef[0] + const[0]
    if kind is EstimatorKind.HYV_UNIVARIATE:
        return value / params.sigma2
    dims = y.shape[-1] if kind is EstimatorKind.FULL_ML else 2 * (y.shape[-1] - 1)
    return value + 0.5 * dims * np.log(params.sigma2)


def ar1_full_loglik(y, params: Ar1Params):
    """Exact stationary AR(1) log-likelihood (additive constants dropped):
    ``-(q0 + phi^2 q_int - 2 phi c1) / (2 sigma2) - T/2 log sigma2
    + 0.5 log(1 - phi^2)`` with the lag sums q0 (all squares), q_int (interior
    squares) and c1 (lag-1 products) of ``y - mu``, evaluated from sums over
    its first differences (see the module docstring)."""
    return -_evaluate(y, params, "ar1", EstimatorKind.FULL_ML)


def ar1_pairwise_loglik(y, params: Ar1Params):
    """Consecutive pairwise AR(1) log-likelihood: sum of the T-1 bivariate
    Gaussian log-densities of adjacent pairs (constants dropped)."""
    return -_evaluate(y, params, "ar1", EstimatorKind.PAIRWISE_ML)


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
    ``2 sigma2^2``, minus ``(2 + (T-2)(1+phi^2)) / sigma2``; the squares are
    expanded into a degree-4 polynomial in ``1 - |phi|`` of the sums of
    squares and products of ``d`` and its second differences.
    """
    return _evaluate(y, params, "ar1", EstimatorKind.HYV_UNIVARIATE)


def ma1_full_loglik(y, params: Ma1Params):
    """MA(1) log-likelihood ``-0.5 log|Omega| - 0.5 (y-mu) Omega^{-1} (y-mu)'``.

    O(T) per series once it is rotated into the DST-I basis, with no dense
    T x T solve: ``-0.5 sum(z^2/lambda + log lambda)`` in the unit-variance
    eigenvalues ``lambda`` (:func:`~minscore.models.ma1_eigenvalues`), with
    ``z = (y - mu) U / sqrt(sigma2)``, minus ``T/2 log sigma2``.
    """
    return -_evaluate(y, params, "ma1", EstimatorKind.FULL_ML)


def ma1_pairwise_loglik(y, params: Ma1Params):
    """Consecutive pairwise MA(1) log-likelihood (constants dropped).

    Each adjacent pair is bivariate normal with variance sigma2*(1+alpha^2)
    and covariance sigma2*alpha; the pair determinant is
    sigma2^2 * (1 + alpha^2 + alpha^4).
    """
    return -_evaluate(y, params, "ma1", EstimatorKind.PAIRWISE_ML)


def ma1_hyvarinen(y, params: Ma1Params):
    """MA(1) Hyvarinen score ``0.5 ||P (y-mu)||^2 - tr(P)`` with ``P = Omega^{-1}``.

    In the DST-I basis ``P`` is diagonal with entries ``1/(sigma2 lambda)``:
    ``(0.5 sum(z^2/lambda^2) - sum(1/lambda)) / sigma2`` with
    ``z = (y - mu) U / sqrt(sigma2)``; O(T) per series once rotated.
    """
    return _evaluate(y, params, "ma1", EstimatorKind.HYV_UNIVARIATE)


def score_per_series(series, kind: EstimatorKind, model: str, theta: float):
    """Per-series objective in minimization orientation (one value per row).

    Log-likelihood kinds are negated so that every estimator minimizes.  The
    Wishart score is not a per-series sum and is rejected here.
    """
    model = canonical_model(model)
    return _evaluate(series, params_for(model, theta), model, EstimatorKind(kind))

