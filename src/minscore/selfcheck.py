"""Fast consistency oracles for the `check` CLI subcommand.

Each check recomputes a quantity through an independent route (dense
inversion, finite differences, brute-force summation, closed-form argmax) and
compares.  Everything here runs in under a second.
"""

from __future__ import annotations

import numpy as np

from . import models, scores, wishart
from .optimize import minimize_scalar

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


def _check_hyvarinen_closed_forms() -> None:
    rng = np.random.default_rng(7)
    for t_len in (3, 5, 12):
        y = rng.standard_normal((4, t_len))
        for theta in (-0.7, 0.2, 0.6):
            ar = models.params_for("ar1", theta)
            direct = scores.ar1_hyvarinen(y, ar)
            generic = scores.gaussian_hyvarinen(y, models.ar1_precision(ar, t_len))
            assert np.max(np.abs(direct - generic)) < 1e-8
            ma = models.params_for("ma1", theta)
            direct = scores.ma1_hyvarinen(y, ma)
            generic = scores.gaussian_hyvarinen(y, models.ma1_precision(ma, t_len))
            assert np.max(np.abs(direct - generic)) < 1e-8


def _check_ma1_banded_objectives() -> None:
    # the O(T) MA(1) objectives against dense slogdet/solve and the dense
    # precision, at a long series and |alpha| near the invertibility bound
    rng = np.random.default_rng(17)
    t_len = 200
    for alpha in (-0.999, 0.999):
        ma = models.Ma1Params(0.3, 1.7, alpha)
        y = ma.mu + rng.standard_normal((4, t_len))
        d = y - ma.mu
        cov = models.ma1_covariance(ma, t_len)
        quad = np.sum(d * np.linalg.solve(cov, d.T).T, axis=1)
        full = -0.5 * np.linalg.slogdet(cov)[1] - 0.5 * quad
        hyv = scores.gaussian_hyvarinen(y, models.ma1_precision(ma, t_len), ma.mu)
        for got, dense in ((scores.ma1_full_loglik(y, ma), full),
                           (scores.ma1_hyvarinen(y, ma), hyv)):
            err = np.max(np.abs(got - dense)) / np.max(np.abs(dense))
            assert err < 1e-10, f"banded MA(1) objective off by {err} (relative) at alpha={alpha}"


def _check_wishart_sensitivity() -> None:
    for t_len in (3, 10, 50):
        for phi in (-0.8, 0.0, 0.5):
            closed = wishart.k_analytic_ar1(phi, t_len)
            brute = wishart.wishart_sensitivity("ar1", phi, t_len)
            assert abs(closed - brute) < 1e-10, (closed, brute)


def _check_wishart_gradient() -> None:
    rng = np.random.default_rng(11)
    y = rng.standard_normal((20, 5))
    ctx = wishart.wishart_context(models.sum_of_squares(y), nu=20, model="ar1")
    for phi in (-0.5, 0.0, 0.5):
        step = 1e-5
        fd = (wishart.hw_score(ctx, phi + step) - wishart.hw_score(ctx, phi - step)) / (2 * step)
        analytic = wishart.hw_grad(ctx, phi)
        assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd)), (analytic, fd)


def _check_wishart_variability() -> None:
    # T = 1: the gradient is c * phi / S plus a constant, with
    # S = chi2_nu / (1 - phi^2), whose inverse-chi-square variance is exact
    for nu in (5, 30):
        exact = wishart.wishart_variability("ar1", 0.6, nu, 1)
        scalar = 0.36 * 0.64**2 / (2.0 * (nu - 4))
        assert abs(exact - scalar) <= 1e-12 * scalar, (nu, exact, scalar)
    for model in ("ar1", "ma1"):
        g2 = wishart.hw_grad_samples(model, 0.4, nu=30, t_len=6, n_draws=4000, seed=13) ** 2
        se = np.std(g2, ddof=1) / np.sqrt(len(g2))
        exact = wishart.wishart_variability(model, 0.4, 30, 6)
        assert abs(np.mean(g2) - exact) <= 4 * se, (model, float(np.mean(g2)), exact)


def _check_pairwise_closed_form() -> None:
    y = models.sample_ar1(models.params_for("ar1", 0.5), 200, 50, seed=123)
    phi_hat, sigma2_hat = scores.ar1_pairwise_closed_form(y)

    def profiled(phi: float) -> float:
        nu, t_len = y.shape
        paired = float(np.sum(y[:, 1:] ** 2) + np.sum(y[:, :-1] ** 2))
        cross = float(np.sum(y[:, 1:] * y[:, :-1]))
        sigma2 = (paired - 2 * phi * cross) / (2 * nu * (t_len - 1))
        p = models.Ar1Params(0.0, sigma2, phi)
        return -float(np.sum(scores.ar1_pairwise_loglik(y, p)))

    phi_num = minimize_scalar(profiled, -0.999, 0.999, tol=1e-8)
    assert abs(phi_hat - phi_num) < 1e-4, (phi_hat, phi_num)
    assert abs(phi_hat - 0.5) < 0.05 and abs(sigma2_hat - 1.0) < 0.05


def _check_sampler_determinism() -> None:
    a = models.sample_ma1(models.params_for("ma1", 0.3), 8, 12, seed=99)
    b = models.sample_ma1(models.params_for("ma1", 0.3), 8, 12, seed=99)
    assert np.array_equal(a, b)


def _check_minimizer() -> None:
    x = minimize_scalar(lambda t: (t - 0.3) ** 2, -1.0, 1.0, tol=1e-8)
    assert abs(x - 0.3) < 1e-6, x


CHECKS = (
    ("precision matrices invert covariances", _check_precision_identity),
    ("closed-form Hyvarinen scores match generic Gaussian form", _check_hyvarinen_closed_forms),
    ("banded MA(1) objectives match dense linear algebra", _check_ma1_banded_objectives),
    ("AR(1) Wishart sensitivity matches brute-force sum", _check_wishart_sensitivity),
    ("Wishart score gradient matches finite differences", _check_wishart_gradient),
    ("exact Wishart variability matches inverse chi-square and Monte Carlo",
     _check_wishart_variability),
    ("pairwise closed form matches numeric argmax", _check_pairwise_closed_form),
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
