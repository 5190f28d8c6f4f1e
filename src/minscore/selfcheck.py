"""Fast consistency oracles for the `check` CLI subcommand.

Each check recomputes a quantity through an independent route (dense
inversion, finite differences, brute-force summation, closed-form argmax) and
compares.  Everything here runs in under a second.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import inference, models, scores, simulate, wishart
from .optimize import GRID_POINTS, Lanes, minimize_lanes

__all__ = ["run_checks"]


def _check_precision_identity() -> None:
    for t_len in (2, 3, 7, 15):
        for theta in (-0.9, -0.5, 0.0, 0.5, 0.9):
            ar = models.params_for("ar1", theta)
            ma = models.params_for("ma1", theta)
            err_ar = np.max(
                np.abs(models.ar1_precision(ar, t_len) @ models.ar1_covariance(ar, t_len) - np.eye(t_len))
            )
            err_ma = np.max(
                np.abs(models.ma1_precision(ma, t_len) @ models.ma1_covariance(ma, t_len) - np.eye(t_len))
            )
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
            for model, precision in (("ar1", models.ar1_precision), ("ma1", models.ma1_precision)):
                direct = _per_series(y, "hyv", model, theta)
                generic = scores.gaussian_hyvarinen(
                    y, precision(models.params_for(model, theta), t_len))
                assert np.max(np.abs(direct - generic)) < 1e-8


def _check_ma1_spectral_objectives() -> None:
    # the O(T) MA(1) objectives of the DST-I basis against dense slogdet/solve
    # and the dense precision, at a long series and |alpha| near the
    # invertibility bound
    rng = np.random.default_rng(17)
    t_len = 200
    for alpha in (-0.999, 0.999):
        ma = models.params_for("ma1", alpha)
        y = rng.standard_normal((4, t_len))
        cov = models.ma1_covariance(ma, t_len)
        quad = np.sum(y * np.linalg.solve(cov, y.T).T, axis=1)
        full = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * quad
        hyv = scores.gaussian_hyvarinen(y, models.ma1_precision(ma, t_len))
        for kind, dense in (("full", full), ("hyv", hyv)):
            got = _per_series(y, kind, "ma1", alpha)
            err = np.max(np.abs(got - dense)) / np.max(np.abs(dense))
            assert err < 1e-10, f"spectral MA(1) {kind} off by {err} (relative) at alpha={alpha}"


def _check_exact_derivatives() -> None:
    # per-series first and second derivatives of MA(1) hyv near the bound
    # against central differences, Richardson-extrapolated from steps h, h/2
    y = models.sample_ma1(models.params_for("ma1", 0.9), 4, 50, seed=19)
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
        dense = 0.25 * np.sum(wishart.precision_derivative(model, lam, t_len) ** 2)
        assert abs(k - dense) <= 1e-10 * max(1.0, dense), (model, t_len, lam, k, dense)


def _check_wishart_gradient() -> None:
    rng = np.random.default_rng(11)
    y = rng.standard_normal((20, 5))
    ctx = wishart.wishart_context(models.sum_of_squares(y), nu=20, model="ar1")
    for phi in (-0.5, 0.0, 0.5):
        step = 1e-5
        fd = (ctx.total(phi + step) - ctx.total(phi - step)) / (2 * step)
        analytic = ctx.derivatives(phi)[0][0]
        assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd)), (analytic, fd)


def _check_wishart_dense() -> None:
    # HW(S, Lambda) and its gradient from dense S^{-1}, precision and derivative
    rng = np.random.default_rng(29)
    for model, t_len, lam in itertools.product(("ar1", "ma1"), (2, 10), (-0.9, 0.0, 0.6)):
        nu = t_len + 6
        s = models.sum_of_squares(rng.standard_normal((nu, t_len)))
        ctx = wishart.wishart_context(s, nu=nu, model=model)
        s_inv, c = np.linalg.inv(s), 0.5 * (nu - t_len - 1)
        resid = c * s_inv - 0.5 * wishart.scale_precision(model, lam, t_len)
        dense = 0.5 * np.sum(resid * resid) - c * np.sum(np.diag(s_inv) ** 2)
        grad = -0.5 * np.sum(resid * wishart.precision_derivative(model, lam, t_len))
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
        g2 = wishart.hw_grad_samples(model, 0.4, nu=30, t_len=6, n_draws=4000, seed=13) ** 2
        se = np.std(g2, ddof=1) / np.sqrt(len(g2))
        exact = wishart.wishart_components(model, 0.4, 30, 6)[0]
        assert abs(np.mean(g2) - exact) <= 4 * se, (model, float(np.mean(g2)), exact)


def _check_pairwise_closed_form() -> None:
    # the closed form against the argmax of the pairwise likelihood, each
    # consecutive pair a bivariate normal with variance tau2 and lag-1
    # correlation phi, and sigma2 = tau2 (1 - phi^2) profiled out
    y = models.sample_ar1(models.params_for("ar1", 0.5), 200, 50, seed=123)
    phi_hat, sigma2_hat = scores.ar1_pairwise_closed_form(y)
    pairs = np.stack([y[:, :-1], y[:, 1:]], axis=-1).reshape(-1, 2)
    paired, cross = float(np.sum(pairs * pairs)), float(np.sum(pairs[:, 0] * pairs[:, 1]))

    def profiled(phi: float) -> float:
        sigma2 = (paired - 2 * phi * cross) / (2 * len(pairs))
        cov = sigma2 / (1 - phi * phi) * np.array([[1.0, phi], [phi, 1.0]])
        quad = np.einsum("ni,ij,nj->", pairs, np.linalg.inv(cov), pairs)
        return 0.5 * quad + 0.5 * len(pairs) * np.linalg.slogdet(cov)[1]

    f, step = np.vectorize(profiled, otypes=[float]), 1e-5

    def jets(theta, order):  # central differences, an independent route
        mid = f(theta)
        if not order:  # the grid scan reads values only
            return mid[None]
        lo, hi = f(theta - step), f(theta + step)
        return np.array([mid, (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2])

    phi_num = _minimize_scalar(jets, -0.999, 0.999)
    assert abs(phi_hat - phi_num) < 1e-4, (phi_hat, phi_num)
    assert abs(phi_hat - 0.5) < 0.05 and abs(sigma2_hat - 1.0) < 0.05


def _check_batched_grid() -> None:
    # the minimizer's grid in one call against one call per seed, for an AR
    # and an MA objective and the Wishart score
    grid = np.linspace(*inference.SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1]
    y = models.sample_ma1(models.params_for("ma1", 0.6), 30, 20, seed=23)
    ctx = wishart.wishart_context(models.sum_of_squares(y), nu=30, model="ma1")
    for f in (scores.series_objective(y, "hyv", "ar1").total,
              scores.series_objective(y, "full", "ma1").total,
              ctx.total):
        batch, point = f(grid), np.array([f(x) for x in grid])
        err = np.max(np.abs(batch - point)) / np.max(np.abs(point))
        assert err < 1e-13, f"batched grid off by {err} (relative) from pointwise values"
        assert np.argmin(batch) == np.argmin(point), "batched grid moved the best seed"


def _check_shared_reductions() -> None:
    # a tiny study's replicates fitted as the study fits them (one reduction
    # shared by all kinds, grid jets from the cache, all replicates as lanes)
    # and kind by kind, each from the raw series with the grid cache emptied
    # first
    for model in ("ar1", "ma1"):
        cfg = simulate.ExperimentConfig(model=model, param_grid=(-0.4, 0.5), nu=20, t_len=8,
                                        replicates=3, seed=5)
        _, details = simulate.run_experiment(cfg, return_details=True)
        for grid_index, theta0 in enumerate(cfg.param_grid):
            series = [simulate._sample_replicate(cfg, theta0, grid_index, rep)
                      for rep in range(cfg.replicates)]
            for kind in cfg.estimators:
                scores._grid_jets.cache_clear()
                alone = [inference.fit(y, kind, model) for y in series]
                alone = [(r.estimate, r.sd) for r in alone if not r.boundary_flag]
                study = list(zip(*details[theta0, kind]))
                assert alone == study, f"{model} {kind} at {theta0}: {study} vs {alone} alone"
        for seed in (0, 1):
            y = models.sample_series(model, 0.5, 20, 8, seed)
            reduction = inference.SeriesReduction(y)
            for kind in scores.EstimatorKind:
                shared = inference.fit(reduction, kind, model)
                scores._grid_jets.cache_clear()
                alone = inference.fit(y, kind, model)
                assert (shared.estimate, shared.sd) == (alone.estimate, alone.sd), (
                    f"{model} {kind}: shared {shared} vs standalone {alone}")


def _check_sampler_determinism() -> None:
    a = models.sample_ma1(models.params_for("ma1", 0.3), 8, 12, seed=99)
    b = models.sample_ma1(models.params_for("ma1", 0.3), 8, 12, seed=99)
    assert np.array_equal(a, b)


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

    found = minimize_lanes(Lanes(terms, np.ones((1, 1)), np.zeros(1), np.ones(1), np.zeros(1)),
                           lo, hi)
    return float(found.theta[0])


CHECKS = (
    ("precision matrices invert covariances", _check_precision_identity),
    ("closed-form Hyvarinen scores match generic Gaussian form", _check_hyvarinen_closed_forms),
    ("spectral MA(1) objectives match dense linear algebra", _check_ma1_spectral_objectives),
    ("exact objective derivatives match central differences", _check_exact_derivatives),
    ("Wishart sensitivity matches dense precision derivative", _check_wishart_k),
    ("Wishart score gradient matches finite differences", _check_wishart_gradient),
    ("Wishart objective matches its dense definition", _check_wishart_dense),
    ("exact Wishart variability matches inverse chi-square and Monte Carlo",
     _check_wishart_j),
    ("pairwise closed form matches numeric argmax", _check_pairwise_closed_form),
    ("batched grid matches pointwise objective values", _check_batched_grid),
    ("shared reductions, cached grid jets and study lanes match standalone fits",
     _check_shared_reductions),
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
