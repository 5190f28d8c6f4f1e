"""Fast consistency oracles for the `check` CLI subcommand, and the dense
forms that they and the tests compare the runtime with.

The runtime modules hold only what a fit or a study runs.  The dense forms
are here: the covariance and precision matrices of both models at unit
innovation variance, the generic Gaussian Hyvarinen score of a precision
matrix, the sigma2-profiled AR(1) pairwise closed form, the Wishart scale
precision and its derivative, the whole Wishart score, and Monte Carlo draws
of the Wishart score gradient.  ``import minscore`` does not load this module.

Each check recomputes a quantity through an independent route (dense
inversion, finite differences, brute-force summation, closed-form argmax) and
compares.  One of them compares the objective of every (model, kind) with its
dense form from the covariance (:data:`_DENSE_OBJECTIVES`).  Everything here
runs in under a second.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import inference, models, scores, simulate, wishart
from .models import _check_size, _jet_power, canonical_model, ma1_eigenvalues, ma1_sine_transform
from .optimize import GRID_POINTS, Lanes, minimize_lanes
from .scores import DegenerateDataError

__all__ = [
    "ar1_covariance",
    "ar1_precision",
    "ma1_covariance",
    "ma1_precision",
    "ma1_geometric_sums",
    "gaussian_hyvarinen",
    "ar1_pairwise_closed_form",
    "scale_precision",
    "precision_derivative",
    "wishart_score",
    "hw_grad_samples",
    "run_checks",
]


def ar1_covariance(phi: float, t_len: int) -> np.ndarray:
    """Covariance matrix with entry (l, m) = phi**|l-m| / (1 - phi**2)."""
    t_len = _check_size(t_len, 1)
    idx = np.arange(t_len)
    lags = np.abs(np.subtract.outer(idx, idx))
    return (1.0 / (1.0 - phi**2)) * np.power(phi, lags)


def ar1_precision(phi: float, t_len: int) -> np.ndarray:
    """Tridiagonal inverse of :func:`ar1_covariance`.

    Off-diagonal entries are -phi, diagonal entries 1 + phi**2 except the two
    corners which are 1.  Requires ``t_len >= 2`` (the corner pattern does
    not describe the scalar case).
    """
    t_len = _check_size(t_len, 2)
    prec = np.diag(np.full(t_len, 1.0 + phi**2))
    prec[0, 0] = prec[-1, -1] = 1.0
    off = np.arange(t_len - 1)
    prec[off, off + 1] = prec[off + 1, off] = -phi
    return prec


def ma1_covariance(alpha: float, t_len: int) -> np.ndarray:
    """Tridiagonal covariance: diagonal 1 + alpha**2, first off-diagonal
    alpha, zero elsewhere."""
    t_len = _check_size(t_len, 1)
    cov = np.eye(t_len) * (1.0 + alpha**2)
    off = np.arange(t_len - 1)
    cov[off, off + 1] = cov[off + 1, off] = alpha
    return cov


def ma1_precision(alpha: float, t_len: int) -> np.ndarray:
    """Inverse of :func:`ma1_covariance` in closed form.

    Entry (i, j) for j >= i (1-based) is
    ``(-alpha)**(j-i) * g[i-1] * g[T-j] / g[T]`` where
    ``g[k] = 1 + alpha**2 + ... + alpha**(2k)`` (:func:`ma1_geometric_sums`);
    the lower triangle follows by symmetry.
    """
    t_len = _check_size(t_len, 1)
    g = ma1_geometric_sums(alpha, t_len)
    idx = np.arange(t_len)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    powers = np.power(-alpha, idx)
    return powers[hi - lo] * g[lo] * g[t_len - 1 - hi] / g[t_len]


def ma1_geometric_sums(alpha: float, t_len: int) -> np.ndarray:
    """``g[k] = 1 + alpha**2 + ... + alpha**(2k)`` for ``k = 0, ..., t_len``.

    ``g[t_len]`` is the determinant of the MA(1) covariance of length
    ``t_len``; the sums are accumulated term by term, which stays stable as
    ``|alpha|`` approaches 1.
    """
    return np.cumsum(np.power(alpha * alpha, np.arange(t_len + 1)))


def gaussian_hyvarinen(y, precision, mu: float = 0.0):
    """Hyvarinen score of a multivariate normal given its precision matrix:
    ``-trace(P) + 0.5 * ||P (y - mu)||^2`` for one series (T,) or each row
    of a stack (nu, T).

    Never references the normalizing constant, so it is invariant under
    positive rescaling of the density.
    """
    prec = np.asarray(precision, dtype=float)
    if prec.ndim != 2 or prec.shape[0] != prec.shape[1]:
        raise ValueError(f"precision must be square, got shape {prec.shape}")
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a (T,) or (nu, T) array, got shape {y.shape}")
    if y.shape[-1] != prec.shape[0]:
        raise ValueError(
            f"dimension mismatch: series length {y.shape[-1]} vs precision {prec.shape[0]}"
        )
    r = (y - mu) @ prec
    return 0.5 * np.sum(r * r, axis=-1) - np.trace(prec)


def ar1_pairwise_closed_form(series) -> tuple[float, float]:
    """Closed-form pairwise estimates (phi_hat, sigma2_hat) with mu = 0 known
    and sigma2 profiled out; the fits keep sigma2 = 1 known instead.

    Sums pool over all series and all consecutive pairs:
    ``phi_hat = 2 * sum(y_t y_{t-1}) / sum(y_t^2 + y_{t-1}^2)`` (Yule-Walker)
    and ``sigma2_hat = sum(y_t^2 + y_{t-1}^2) / (2 nu (T-1)) * (1 - phi_hat^2)``.

    Boundary values ``|phi_hat| >= 1`` are returned as-is.  Raises
    :class:`~minscore.scores.DegenerateDataError` when every pair is zero.
    """
    y = np.atleast_2d(np.asarray(series, dtype=float))
    nu, t_len = y.shape
    cross = float(np.sum(y[:, 1:] * y[:, :-1]))
    paired = float(np.sum(y[:, 1:] ** 2) + np.sum(y[:, :-1] ** 2))
    if paired == 0.0:
        raise DegenerateDataError("all consecutive pairs are zero")
    phi_hat = 2.0 * cross / paired
    sigma2_hat = paired / (2.0 * nu * (t_len - 1)) * (1.0 - phi_hat**2)
    return phi_hat, sigma2_hat


def scale_precision(model: str, lam: float, t_len: int) -> np.ndarray:
    """Inverse of the unit-variance scale matrix at dependence parameter lam.

    AR(1) with T = 1 is handled directly (the tridiagonal corner pattern only
    exists for T >= 2): the scale entry is 1/(1-lam^2), so its inverse is
    1 - lam^2.
    """
    if canonical_model(model) == "ma1":
        return ma1_precision(lam, t_len)
    return np.array([[1.0 - lam**2]]) if t_len == 1 else ar1_precision(lam, t_len)


def precision_derivative(model: str, lam: float, t_len: int) -> np.ndarray:
    """Elementwise derivative of :func:`scale_precision` in lam, analytic.

    AR(1): off-diagonals -1, interior diagonal 2*lam, corner diagonal 0.
    MA(1): ``U diag(d(1/lambda_k)/d lam) U`` in the DST-I basis, which equals
    ``-P Omega' P`` with ``Omega'`` tridiagonal ``(1, 2 lam, 1)``.
    """
    if canonical_model(model) == "ma1":
        d = np.diag(_jet_power(ma1_eigenvalues(lam, t_len, 1), -1)[1])
        return ma1_sine_transform(ma1_sine_transform(d).T)  # U d U, as d and U are symmetric
    if t_len == 1:
        return np.array([[-2.0 * lam]])
    deriv = np.zeros((t_len, t_len))
    idx = np.arange(t_len - 1)
    deriv[idx, idx + 1] = deriv[idx + 1, idx] = -1.0
    inner = np.arange(1, t_len - 1)
    deriv[inner, inner] = 2.0 * lam
    return deriv


def wishart_score(s, nu: int, model: str, lam) -> float:
    """The Wishart score ``0.5 ||c S^{-1} - P/2||_F^2 - c sum_i (s^{ii})^2`` of
    the sum-of-squares matrix S of ``nu`` series, c = (nu - T - 1)/2, from
    dense S^{-1} and P the :func:`scale_precision` at lam.  ``lam=None`` takes
    P = 0, which leaves the part free of lam that the runtime omits."""
    s_inv, c = np.linalg.inv(s), 0.5 * (nu - len(s) - 1)
    resid = c * s_inv - (0.0 if lam is None else 0.5 * scale_precision(model, lam, len(s)))
    return float(0.5 * np.sum(resid * resid) - c * np.sum(np.diag(s_inv) ** 2))


def hw_grad_samples(
    model: str,
    lam: float,
    nu: int,
    t_len: int,
    n_draws: int,
    seed,
    chunk: int = 128,
) -> np.ndarray:
    """Wishart score-equation gradients at lam over fresh Wishart draws.

    Each draw is the sum-of-squares matrix of ``nu`` series of length
    ``t_len`` simulated at parameter lam by the model samplers.  A Monte
    Carlo check of the J of :func:`~minscore.wishart.wishart_components`.
    Returns an array of ``n_draws`` gradient values.
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
        draws = models.sample_series(model, lam, n * nu, t_len, rng).reshape(n, nu, t_len)
        s = np.matmul(draws.transpose(0, 2, 1), draws)
        s_inv = np.linalg.inv(s)
        s_inv = 0.5 * (s_inv + s_inv.transpose(0, 2, 1))
        resid = c * s_inv - 0.5 * prec
        grads[done : done + n] = -0.5 * np.einsum("bij,ij->b", resid, dprec)
        done += n
    return grads


def _require(passed, message) -> None:
    # a check's verdict, raised whether or not Python strips assert
    # statements (python -O)
    if not passed:
        raise AssertionError(message)


def _check_precision_identity() -> None:
    for t_len in (2, 3, 7, 15):
        for theta in (-0.9, -0.5, 0.0, 0.5, 0.9):
            err_ar = np.max(np.abs(
                ar1_precision(theta, t_len) @ ar1_covariance(theta, t_len) - np.eye(t_len)))
            err_ma = np.max(np.abs(
                ma1_precision(theta, t_len) @ ma1_covariance(theta, t_len) - np.eye(t_len)))
            _require(err_ar < 1e-10, f"AR precision identity off by {err_ar}")
            _require(err_ma < 1e-10, f"MA precision identity off by {err_ma}")


def _dense_full(y, cov) -> np.ndarray:
    # 0.5 log det cov + 0.5 y cov^{-1} y' of each row y of a (..., T) array
    solved = np.linalg.solve(cov, y.reshape(-1, len(cov)).T).T.reshape(y.shape)
    return 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * np.sum(y * solved, axis=-1)


_COVARIANCES = {"ar1": ar1_covariance, "ma1": ma1_covariance}
# each kind's objective of every row of a (n, T) array at theta, from the
# dense covariance Sigma(theta) and the closed-form precision: pairwise sums
# the full form of each consecutive pair under Sigma's leading 2 x 2 block,
# and the Wishart kind's one row is the whole array, S = Y'Y
_DENSE_OBJECTIVES = {
    "full": lambda y, model, theta: _dense_full(y, _COVARIANCES[model](theta, y.shape[1])),
    "hyv": lambda y, model, theta: gaussian_hyvarinen(
        y, scale_precision(model, theta, y.shape[1])),
    "pairwise": lambda y, model, theta: np.sum(_dense_full(
        np.lib.stride_tricks.sliding_window_view(y, 2, axis=1),
        _COVARIANCES[model](theta, y.shape[1])[:2, :2]), axis=1),
    "hyv-wishart": lambda y, model, theta: (wishart_score(y.T @ y, len(y), model, theta)
                                            - wishart_score(y.T @ y, len(y), model, None)),
}


def _check_dense_objectives() -> None:
    # every (model, kind)'s objective against its dense form, each series
    # relative to its own value, on four series drawn at theta out to the
    # search bound, where the AR(1) per-sign differences keep every statistic
    # at the size of the objective.  The per-series MA(1) kinds also run at
    # T = 200, whose series rotate by the cached DST-I basis, and T = 300
    # (T^2 > BASIS_FLOATS), by the FFT; the Wishart row rotates the T rows of
    # L^{-1} by the basis at any T.  It reads nu = 4T series: at nu = T + 6,
    # T = 50 and |theta| = 0.999 the dense S^{-1} itself is off by 7e-11
    shapes = list(itertools.product((3, 12, 50), (-0.999, -0.5, 0.3, 0.999)))
    long = list(itertools.product((200, 300), (-0.999, 0.999)))
    for model, kind in itertools.product(models.MODELS, scores.EstimatorKind):
        wishart_row = kind is scores.EstimatorKind.HYV_WISHART
        for t_len, theta in shapes + (long if model == "ma1" and not wishart_row else []):
            y = models.sample_series(model, theta, 4 * t_len if wishart_row else 4, t_len,
                                     seed=t_len)
            got = np.array([scores.series_objective(row, kind, model).total(theta)
                            for row in ([y] if wishart_row else y)])
            want = _DENSE_OBJECTIVES[kind](y, model, theta)
            err = np.max(np.abs(got - want) / np.abs(want))
            _require(err < 1e-10, f"{model} {kind} off by {err:.3g} (relative) from its "
                                  f"dense form at T={t_len}, theta={theta}")


def _check_exact_derivatives() -> None:
    # each row's exact first and second derivatives, for every kind of both
    # models, against central differences of its objective, Richardson-
    # extrapolated from steps h, h/2; AR(1) at a theta of each sign, and the
    # Wishart kind's one row that of wishart_context(S, nu, model), S = Y'Y
    h = 1e-3
    for model, theta in (("ar1", -0.6), ("ar1", 0.9), ("ma1", 0.9)):
        y = models.sample_series(model, theta, 24, 20, seed=19)
        for kind in scores.EstimatorKind:
            objective = scores.series_objective(y, kind, model)
            rows = [dataclasses.replace(objective, stats=None, pooled=s, rows=1)
                    for s in objective.stats]
            lo, lo2, mid, hi2, hi = np.transpose([row.total(theta + np.array(
                [-h, -h / 2, 0.0, h / 2, h])) for row in rows])
            d1 = (4 * (hi2 - lo2) / h - (hi - lo) / (2 * h)) / 3
            d2 = (16 * (hi2 - 2 * mid + lo2) / h**2 - (hi - 2 * mid + lo) / h**2) / 3
            for order, exact, diff in zip((1, 2), objective.derivatives(theta), (d1, d2)):
                err = np.max(np.abs(exact - diff)) / np.max(np.abs(exact))
                _require(err < 1e-7, f"{model} {kind} derivative {order} off by {err} "
                                     f"(relative) from differences at theta={theta}")


def _check_wishart_traces() -> None:
    # the closed-form tr(D P), tr(D P D P) and ||D||_F^2 that J and K read
    # against the dense precision P and its derivative D, relative, then K
    for model, t_len, lam in itertools.product(("ar1", "ma1"), (1, 2, 3, 50), (-0.9, -0.3, 0.6)):
        d, p = precision_derivative(model, lam, t_len), scale_precision(model, lam, t_len)
        dense = (np.trace(d @ p), np.trace(d @ p @ d @ p), np.sum(d * d))
        got = wishart._derivative_traces(model, np.float64(lam), t_len)
        for name, value, want in zip(("tr(D P)", "tr(D P D P)", "||D||_F^2"), got, dense):
            _require(abs(value - want) <= 1e-12 * abs(want),
                     f"{model} {name} off by {abs(value / want - 1):.3g} (relative) at "
                     f"T={t_len}, lam={lam}")
    for model, t_len, lam in itertools.product(("ar1", "ma1"), (3, 10, 50), (-0.8, 0.0, 0.5)):
        k = wishart.wishart_components(model, lam, t_len + 4, t_len)[1]
        dense = 0.25 * np.sum(precision_derivative(model, lam, t_len) ** 2)
        _require(abs(k - dense) <= 1e-10 * max(1.0, dense), (model, t_len, lam, k, dense))


def _check_wishart_dense() -> None:
    # HW(S, Lambda) less its part free of Lambda, and its gradient, from dense
    # S^{-1}, precision and derivative, at T = 1 and 2 and the search bound
    rng = np.random.default_rng(29)
    for model, t_len, lam in itertools.product(("ar1", "ma1"), (1, 2, 10), (-.999, 0, .6, .999)):
        nu = t_len + 6
        s = models.sum_of_squares(rng.standard_normal((nu, t_len)))
        ctx = scores.wishart_context(s, nu=nu, model=model)
        dense = wishart_score(s, nu, model, lam) - wishart_score(s, nu, model, None)
        c = 0.5 * (nu - t_len - 1)
        resid = c * np.linalg.inv(s) - 0.5 * scale_precision(model, lam, t_len)
        grad = -0.5 * np.sum(resid * precision_derivative(model, lam, t_len))
        for got, want in ((ctx.total(lam), dense), (ctx.derivatives(lam)[0][0], grad)):
            _require(abs(got - want) <= 1e-10 * max(1.0, abs(want)),
                     (model, t_len, lam, got, want))


def _check_wishart_j() -> None:
    # T = 1: the gradient is c * phi / S plus a constant, with
    # S = chi2_nu / (1 - phi^2), whose inverse-chi-square variance is exact
    for nu in (5, 30):
        exact = wishart.wishart_components("ar1", 0.6, nu, 1)[0]
        scalar = 0.36 * 0.64**2 / (2.0 * (nu - 4))
        _require(abs(exact - scalar) <= 1e-12 * scalar, (nu, exact, scalar))
    for model in ("ar1", "ma1"):
        g2 = hw_grad_samples(model, 0.4, nu=30, t_len=6, n_draws=4000, seed=13) ** 2
        se = np.std(g2, ddof=1) / np.sqrt(len(g2))
        exact = wishart.wishart_components(model, 0.4, 30, 6)[0]
        _require(abs(np.mean(g2) - exact) <= 4 * se, (model, float(np.mean(g2)), exact))


def _check_pairwise_argmins() -> None:
    # the AR(1) pairwise fit (sigma2 = 1 known) and the closed form (sigma2
    # profiled out) against numeric argmins of the pairwise likelihood, each
    # consecutive pair a bivariate normal with variance sigma2 / (1 - phi^2)
    # and lag-1 correlation phi
    y = models.sample_ar1(0.5, 200, 50, seed=123)
    phi_hat, sigma2_hat = ar1_pairwise_closed_form(y)
    pairs = np.stack([y[:, :-1], y[:, 1:]], axis=-1).reshape(-1, 2)
    paired, cross = float(np.sum(pairs * pairs)), float(np.sum(pairs[:, 0] * pairs[:, 1]))

    def negloglik(phi: float, sigma2: float) -> float:
        cov = sigma2 / (1 - phi * phi) * np.array([[1.0, phi], [phi, 1.0]])
        quad = np.einsum("ni,ij,nj->", pairs, np.linalg.inv(cov), pairs)
        return 0.5 * quad + 0.5 * len(pairs) * np.linalg.slogdet(cov)[1]

    def argmin(objective) -> float:
        f, step = np.vectorize(objective, otypes=[float]), 1e-5

        def jets(theta, order):  # central differences, an independent route
            mid = f(theta)
            if not order:  # the grid scan reads values only
                return mid[None]
            lo, hi = f(theta - step), f(theta + step)
            return np.array([mid, (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2])

        return _minimize_scalar(jets, -0.999, 0.999)

    fitted = inference.fit(y, "pairwise", "ar1").estimate
    phi_num = argmin(lambda phi: negloglik(phi, 1.0))
    _require(abs(fitted - phi_num) < 1e-6, (fitted, phi_num))
    phi_num = argmin(lambda phi: negloglik(phi, (paired - 2 * phi * cross) / (2 * len(pairs))))
    _require(abs(phi_hat - phi_num) < 1e-4, (phi_hat, phi_num))
    _require(abs(phi_hat - 0.5) < 0.05 and abs(sigma2_hat - 1.0) < 0.05,
             (phi_hat, sigma2_hat))


def _check_batched_grid() -> None:
    # the minimizer's grid in one call against one call per seed, for an AR
    # and an MA objective and the Wishart score
    grid = np.linspace(*inference.SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1]
    y = models.sample_ma1(0.6, 30, 20, seed=23)
    ctx = scores.wishart_context(models.sum_of_squares(y), nu=30, model="ma1")
    for f in (scores.series_objective(y, "hyv", "ar1").total,
              scores.series_objective(y, "full", "ma1").total,
              ctx.total):
        batch, point = f(grid), np.array([f(x) for x in grid])
        err = np.max(np.abs(batch - point)) / np.max(np.abs(point))
        _require(err < 1e-13, f"batched grid off by {err} (relative) from pointwise values")
        _require(np.argmin(batch) == np.argmin(point), "batched grid moved the best seed")


def _check_shared_reductions() -> None:
    # a tiny study's replicates fitted as the study fits them (one reduction
    # shared by all kinds, all replicates as lanes) and kind by kind, each
    # from the raw series
    for model in ("ar1", "ma1"):
        cfg = simulate.ExperimentConfig(model=model, param_grid=(-0.4, 0.5), nu=20, t_len=8,
                                        replicates=3, seed=5)
        rows = {(row.param_true, row.estimator): row for row in simulate.run_experiment(cfg)}
        for grid_index, theta0 in enumerate(cfg.param_grid):
            series = [simulate._sample_replicate(cfg, theta0, grid_index, rep)
                      for rep in range(cfg.replicates)]
            for kind in cfg.estimators:
                alone = [inference.fit(y, kind, model) for y in series]
                alone = [(r.estimate, r.sd) for r in alone if not r.boundary_flag]
                study = list(zip(rows[theta0, kind].estimates, rows[theta0, kind].sds))
                _require(alone == study, f"{model} {kind} at {theta0}: {study} vs {alone} alone")
        for seed in (0, 1):
            y = models.sample_series(model, 0.5, 20, 8, seed)
            reduction = inference.SeriesReduction(y, scores.EstimatorKind, model)
            for kind in scores.EstimatorKind:
                shared = inference.fit(reduction, kind, model)
                alone = inference.fit(y, kind, model)
                _require((shared.estimate, shared.sd) == (alone.estimate, alone.sd),
                         f"{model} {kind}: shared {shared} vs standalone {alone}")


def _check_symmetries() -> None:
    # both laws are persymmetric and Sigma(-theta) = D Sigma(theta) D with D =
    # diag((-1)^t), so reversing time leaves every fit unchanged and
    # alternating the signs maps theta_hat to -theta_hat with the same sd; to
    # the tolerance of the test suite's symmetry oracle (1e-12, 9x the largest
    # deviation measured over random shapes)
    for model in ("ar1", "ma1"):
        y = models.sample_series(model, 0.6, 30, 8, seed=37)
        mirrors = (("reversed", y[:, ::-1], 1.0),
                   ("sign-alternated", y * (-1.0) ** np.arange(y.shape[1]), -1.0))
        for kind in scores.EstimatorKind:
            record = inference.fit(y, kind, model)
            for name, mirror, sign in mirrors:
                other = inference.fit(mirror, kind, model)
                where = f"{model} {kind} {name}: {other} vs {record}"
                _require(other.boundary_flag == record.boundary_flag, where)
                _require(abs(other.estimate - sign * record.estimate) <= 1e-12, where)
                _require((other.sd is None) == (record.sd is None), where)
                _require(record.sd is None or abs(other.sd / record.sd - 1.0) <= 1e-12, where)


def _check_sampler_determinism() -> None:
    a = models.sample_ma1(0.3, 8, 12, seed=99)
    b = models.sample_ma1(0.3, 8, 12, seed=99)
    _require(np.array_equal(a, b), "MA(1) draws differ between two calls of one seed")
    # the AR(1) recursion against one in Python floats over the same draws
    for phi in (-0.999, 0.5):
        z = np.random.default_rng(99).standard_normal((8, 12)).tolist()
        scalar = []
        for row in z:
            path = [row[0] / float(np.sqrt(1.0 - phi**2))]
            for value in row[1:]:
                path.append(value + phi * path[-1])
            scalar.append(path)
        ar = models.sample_ar1(phi, 8, 12, seed=99)
        _require(np.array_equal(ar, scalar), f"AR(1) recursion off its scalar form at phi={phi}")


def _check_lane_basins() -> None:
    # every lane of one minimize_lanes call against a 2001-point grid over
    # its best seed's basin [x_{b-1}, x_{b+1}] (an end of the interval beside
    # an outer seed): the lane lies in the basin, and no grid point lies below
    # its value by more than 1e-12 relative (the largest gap seen is 4e-16);
    # 16 small datasets per model, theta drawn over |theta| <= 0.99 and, for
    # the outer seeds, 0.85 <= |theta| <= 0.99, and every kind
    rng = np.random.default_rng(43)
    lo, hi = inference.SEARCH_BOUNDS
    xs = np.linspace(lo, hi, GRID_POINTS + 2)  # the seeds and both ends
    for model in ("ar1", "ma1"):
        thetas = np.append(rng.uniform(-0.99, 0.99, 8), rng.uniform(0.85, 0.99, 8)
                           * rng.choice([-1.0, 1.0], 8))
        data = [models.sample_series(model, theta, 20, 6, rng) for theta in thetas]
        for kind in scores.EstimatorKind:
            objectives = [scores.series_objective(y, kind, model) for y in data]
            found = minimize_lanes(scores.objective_lanes(objectives), lo, hi)
            for o, theta in zip(objectives, found):
                best = np.argmin(o.total(xs[1:-1])) + 1
                basin = np.linspace(xs[best - 1], xs[best + 1], 2001)
                value, floor = o.total(theta), np.min(o.total(basin))
                _require(basin[0] <= theta <= basin[-1] and value - floor <= 1e-12 * abs(floor),
                         f"{model} {kind} lane at {theta} (value {value}) misses the minimum "
                         f"{floor} of its basin [{basin[0]}, {basin[-1]}]")


def _check_minimizer() -> None:
    x = _minimize_scalar(lambda t, order: np.array([(t - 0.3) ** 2, 2 * (t - 0.3), 2 + 0 * t]),
                         -1.0, 1.0)
    _require(abs(x - 0.3) < 1e-6, x)


def _minimize_scalar(jets, lo: float, hi: float) -> float:
    # one lane whose jets(theta, order) are the value and first ``order``
    # derivatives of a scalar function (more rows are dropped)
    def terms(theta, order):
        return (jets(theta, order)[: order + 1, ..., None],
                np.zeros((order + 1,) + np.shape(theta)))

    lanes = Lanes(terms, np.ones((1, 1)), np.zeros(1))
    return float(minimize_lanes(lanes, lo, hi)[0])


CHECKS = (
    ("precision matrices invert covariances", _check_precision_identity),
    ("every objective matches its dense form from the covariance", _check_dense_objectives),
    ("exact objective derivatives match central differences", _check_exact_derivatives),
    ("Wishart derivative traces and sensitivity match the dense precision derivative",
     _check_wishart_traces),
    ("Wishart objective matches its dense definition", _check_wishart_dense),
    ("exact Wishart variability matches inverse chi-square and Monte Carlo",
     _check_wishart_j),
    ("AR(1) pairwise fit and closed form match numeric argmins", _check_pairwise_argmins),
    ("batched grid matches pointwise objective values", _check_batched_grid),
    ("shared reductions and study lanes match standalone fits",
     _check_shared_reductions),
    ("fits are unchanged by time reversal and mirrored by alternating signs",
     _check_symmetries),
    ("samplers are seed-deterministic", _check_sampler_determinism),
    ("every lane ends at the minimum of its best grid basin", _check_lane_basins),
    ("scalar minimizer finds quadratic minimum", _check_minimizer),
)


def run_checks() -> list[tuple[str, bool, str]]:
    """Run all oracles; returns (name, passed, message) per check."""
    results = []
    for name, func in CHECKS:
        try:
            func()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append((name, False, str(exc)))
        else:
            results.append((name, True, ""))
    return results
