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
compares.  Everything here runs in under a second.
"""

from __future__ import annotations

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


def _check_precision_identity() -> None:
    for t_len in (2, 3, 7, 15):
        for theta in (-0.9, -0.5, 0.0, 0.5, 0.9):
            err_ar = np.max(np.abs(
                ar1_precision(theta, t_len) @ ar1_covariance(theta, t_len) - np.eye(t_len)))
            err_ma = np.max(np.abs(
                ma1_precision(theta, t_len) @ ma1_covariance(theta, t_len) - np.eye(t_len)))
            assert err_ar < 1e-10, f"AR precision identity off by {err_ar}"
            assert err_ma < 1e-10, f"MA precision identity off by {err_ma}"


def _per_series(y, kind: str, model: str, theta: float) -> np.ndarray:
    # each row's objective from a reduction of that row alone
    return np.array([scores.series_objective(row, kind, model).total(theta) for row in y])


def _check_hyvarinen_closed_forms() -> None:
    rng = np.random.default_rng(7)
    for t_len in (3, 5, 12):
        y = rng.standard_normal((4, t_len))
        for theta in (-0.7, 0.2, 0.6):
            for model, precision in (("ar1", ar1_precision), ("ma1", ma1_precision)):
                direct = _per_series(y, "hyv", model, theta)
                generic = gaussian_hyvarinen(y, precision(theta, t_len))
                assert np.max(np.abs(direct - generic)) < 1e-8


def _check_ma1_spectral_objectives() -> None:
    # the O(T) MA(1) objectives of the DST-I basis against dense slogdet/solve
    # and the dense precision, at long series and |alpha| near the
    # invertibility bound; each series' error relative to its own objective,
    # so a term that one large ||P y||^2 dwarfs still counts.  Four series of
    # T = 200 rotate by the cached basis, of T = 300 (T^2 > BASIS_FLOATS) by
    # the FFT
    rng = np.random.default_rng(17)
    for t_len, alpha in itertools.product((200, 300), (-0.999, 0.999)):
        y = rng.standard_normal((4, t_len))
        cov = ma1_covariance(alpha, t_len)
        quad = np.sum(y * np.linalg.solve(cov, y.T).T, axis=1)
        full = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * quad
        hyv = gaussian_hyvarinen(y, ma1_precision(alpha, t_len))
        for kind, dense in (("full", full), ("hyv", hyv)):
            got = _per_series(y, kind, "ma1", alpha)
            err = np.max(np.abs(got - dense) / np.abs(dense))
            assert err < 1e-10, (f"spectral MA(1) {kind} off by {err} (relative) at "
                                 f"T={t_len}, alpha={alpha}")


def _check_ar1_objectives() -> None:
    # the AR(1) full and hyv objectives of the sign-half statistics against
    # dense slogdet/solve and the dense precision, on series drawn at each phi
    # out to |phi| = 0.999, where the per-sign differences keep every
    # statistic at the size of the objective; each series' error relative to
    # its own objective
    for t_len, phi in itertools.product((3, 50), (-0.999, -0.5, 0.5, 0.999)):
        y = models.sample_ar1(phi, 4, t_len, seed=t_len)
        cov = ar1_covariance(phi, t_len)
        quad = np.sum(y * np.linalg.solve(cov, y.T).T, axis=1)
        full = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * quad
        hyv = gaussian_hyvarinen(y, ar1_precision(phi, t_len))
        for kind, dense in (("full", full), ("hyv", hyv)):
            got = _per_series(y, kind, "ar1", phi)
            err = np.max(np.abs(got - dense) / np.abs(dense))
            assert err < 1e-10, (f"AR(1) {kind} off by {err} (relative) at "
                                 f"T={t_len}, phi={phi}")


def _check_exact_derivatives() -> None:
    # per-series first and second derivatives of MA(1) hyv near the bound
    # against central differences, Richardson-extrapolated from steps h, h/2
    y = models.sample_ma1(0.9, 4, 50, seed=19)
    theta, h = 0.9, 1e-3

    def f(th):
        return _per_series(y, "hyv", "ma1", th)

    def d1(step):
        return (f(theta + step) - f(theta - step)) / (2 * step)

    def d2(step):
        return (f(theta + step) - 2 * f(theta) + f(theta - step)) / step**2

    grad, hess = scores.series_objective(y, "hyv", "ma1").derivatives(theta)
    for exact, diff in ((grad, (4 * d1(h / 2) - d1(h)) / 3), (hess, (4 * d2(h / 2) - d2(h)) / 3)):
        err = np.max(np.abs(exact - diff)) / np.max(np.abs(exact))
        assert err < 1e-7, f"exact derivative off by {err} (relative) from differences"


def _check_wishart_k() -> None:
    # K of the closed-form traces against the dense precision derivative
    for model, t_len, lam in itertools.product(("ar1", "ma1"), (3, 10, 50), (-0.8, 0.0, 0.5)):
        k = wishart.wishart_components(model, lam, t_len + 4, t_len)[1]
        dense = 0.25 * np.sum(precision_derivative(model, lam, t_len) ** 2)
        assert abs(k - dense) <= 1e-10 * max(1.0, dense), (model, t_len, lam, k, dense)


def _check_wishart_gradient() -> None:
    rng = np.random.default_rng(11)
    y = rng.standard_normal((20, 5))
    ctx = scores.wishart_context(models.sum_of_squares(y), nu=20, model="ar1")
    for phi in (-0.5, 0.0, 0.5):
        step = 1e-5
        fd = (ctx.total(phi + step) - ctx.total(phi - step)) / (2 * step)
        analytic = ctx.derivatives(phi)[0][0]
        assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd)), (analytic, fd)


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
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (model, t_len, lam, got, want)


def _check_wishart_j() -> None:
    # T = 1: the gradient is c * phi / S plus a constant, with
    # S = chi2_nu / (1 - phi^2), whose inverse-chi-square variance is exact
    for nu in (5, 30):
        exact = wishart.wishart_components("ar1", 0.6, nu, 1)[0]
        scalar = 0.36 * 0.64**2 / (2.0 * (nu - 4))
        assert abs(exact - scalar) <= 1e-12 * scalar, (nu, exact, scalar)
    for model in ("ar1", "ma1"):
        g2 = hw_grad_samples(model, 0.4, nu=30, t_len=6, n_draws=4000, seed=13) ** 2
        se = np.std(g2, ddof=1) / np.sqrt(len(g2))
        exact = wishart.wishart_components(model, 0.4, 30, 6)[0]
        assert abs(np.mean(g2) - exact) <= 4 * se, (model, float(np.mean(g2)), exact)


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
    assert abs(fitted - phi_num) < 1e-6, (fitted, phi_num)
    phi_num = argmin(lambda phi: negloglik(phi, (paired - 2 * phi * cross) / (2 * len(pairs))))
    assert abs(phi_hat - phi_num) < 1e-4, (phi_hat, phi_num)
    assert abs(phi_hat - 0.5) < 0.05 and abs(sigma2_hat - 1.0) < 0.05


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
        assert err < 1e-13, f"batched grid off by {err} (relative) from pointwise values"
        assert np.argmin(batch) == np.argmin(point), "batched grid moved the best seed"


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
                assert alone == study, f"{model} {kind} at {theta0}: {study} vs {alone} alone"
        for seed in (0, 1):
            y = models.sample_series(model, 0.5, 20, 8, seed)
            reduction = inference.SeriesReduction(y, scores.EstimatorKind, model)
            for kind in scores.EstimatorKind:
                shared = inference.fit(reduction, kind, model)
                alone = inference.fit(y, kind, model)
                assert (shared.estimate, shared.sd) == (alone.estimate, alone.sd), (
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
                assert other.boundary_flag == record.boundary_flag, where
                assert abs(other.estimate - sign * record.estimate) <= 1e-12, where
                assert (other.sd is None) == (record.sd is None), where
                assert record.sd is None or abs(other.sd / record.sd - 1.0) <= 1e-12, where


def _check_sampler_determinism() -> None:
    a = models.sample_ma1(0.3, 8, 12, seed=99)
    b = models.sample_ma1(0.3, 8, 12, seed=99)
    assert np.array_equal(a, b)
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
        assert np.array_equal(ar, scalar), f"AR(1) recursion off its scalar form at phi={phi}"


def _check_minimizer() -> None:
    x = _minimize_scalar(lambda t, order: np.array([(t - 0.3) ** 2, 2 * (t - 0.3), 2 + 0 * t]),
                         -1.0, 1.0)
    assert abs(x - 0.3) < 1e-6, x


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
    ("closed-form Hyvarinen scores match generic Gaussian form", _check_hyvarinen_closed_forms),
    ("spectral MA(1) objectives match dense linear algebra", _check_ma1_spectral_objectives),
    ("AR(1) sign-half objectives match dense linear algebra", _check_ar1_objectives),
    ("exact objective derivatives match central differences", _check_exact_derivatives),
    ("Wishart sensitivity matches dense precision derivative", _check_wishart_k),
    ("Wishart score gradient matches finite differences", _check_wishart_gradient),
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
