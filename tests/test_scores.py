"""Objective functions: frozen spot values, independent oracles, invariants."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from minscore import (
    Ar1Params,
    Ma1Params,
    DegenerateDataError,
    EstimatorKind,
    ar1_covariance,
    ar1_full_loglik,
    ar1_hyvarinen,
    ar1_pairwise_closed_form,
    ar1_pairwise_loglik,
    ar1_precision,
    gaussian_hyvarinen,
    ma1_covariance,
    ma1_full_loglik,
    ma1_hyvarinen,
    ma1_pairwise_loglik,
    ma1_precision,
    minimize_scalar,
    params_for,
    sample_ar1,
    sample_ma1,
    score_per_series,
    total_score,
)
from minscore.scores import min_series_length


def fd_hyvarinen(y, log_density, h=1e-4):
    """Independent oracle: laplacian + half squared gradient norm of the
    log-density, via central finite differences coordinate by coordinate."""
    y = np.asarray(y, dtype=float)
    grad = np.empty_like(y)
    lap = 0.0
    f0 = log_density(y)
    for i in range(len(y)):
        step = np.zeros_like(y)
        step[i] = h
        fp, fm = log_density(y + step), log_density(y - step)
        grad[i] = (fp - fm) / (2 * h)
        lap += (fp - 2 * f0 + fm) / h**2
    return lap + 0.5 * np.sum(grad**2)


class TestAr1FullLoglik:
    def test_zero_data_zero_value(self):
        assert ar1_full_loglik(np.zeros(3), Ar1Params(0, 1, 0.0)) == 0.0

    def test_term_by_term_t2(self):
        got = ar1_full_loglik(np.array([1.0, 1.0]), Ar1Params(0, 1, 0.5))
        npt.assert_allclose(got, -0.5 + 0.5 * np.log(0.75), rtol=1e-14)

    def test_iid_reduction(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(9)
        got = ar1_full_loglik(y, Ar1Params(0, 1, 0.0))
        npt.assert_allclose(got, -0.5 * np.sum(y**2), rtol=1e-14)

    def test_matches_dense_gaussian_logdensity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(6)
        params = Ar1Params(0.3, 1.4, 0.6)
        cov = ar1_covariance(params, 6)
        d = y - params.mu
        dense = -0.5 * np.linalg.slogdet(cov)[1] - 0.5 * d @ np.linalg.solve(cov, d)
        # the closed form drops (T/2) log(2*pi*...) differently: reconcile constants
        # dropped constant is -T/2 log(2 pi); the display keeps everything else
        npt.assert_allclose(ar1_full_loglik(y, params), dense, rtol=0, atol=1e-10)


class TestAr1PairwiseLoglik:
    def test_zero_data(self):
        got = ar1_pairwise_loglik(np.zeros(3), Ar1Params(0, 1, 0.4))
        npt.assert_allclose(got, np.log(1 - 0.4**2), rtol=1e-14)

    def test_term_by_term_t2(self):
        got = ar1_pairwise_loglik(np.array([1.0, 1.0]), Ar1Params(0, 1, 0.5))
        npt.assert_allclose(got, -0.5 + 0.5 * np.log(0.75), rtol=1e-14)

    def test_iid_reduction(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(8)
        got = ar1_pairwise_loglik(y, Ar1Params(0, 1, 0.0))
        npt.assert_allclose(got, -0.5 * (np.sum(y[1:] ** 2) + np.sum(y[:-1] ** 2)), rtol=1e-14)

    def test_matches_sum_of_bivariate_logdensities(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(7)
        params = Ar1Params(0.2, 1.3, 0.5)
        tau2 = params.sigma2 / (1 - params.phi**2)
        cov2 = np.array([[tau2, tau2 * params.phi], [tau2 * params.phi, tau2]])
        exact = sum(
            stats.multivariate_normal(mean=[params.mu] * 2, cov=cov2).logpdf(y[t - 1 : t + 1])
            for t in range(1, 7)
        )
        # the display drops one log(2 pi) per pair
        npt.assert_allclose(
            ar1_pairwise_loglik(y, params), exact + 6 * np.log(2 * np.pi), atol=1e-10
        )


class TestAr1PairwiseClosedForm:
    def test_orthogonal_lags(self):
        phi_hat, sigma2_hat = ar1_pairwise_closed_form(np.array([1.0, 0.0, 1.0]))
        assert phi_hat == 0.0
        assert sigma2_hat == 0.5

    def test_perfect_correlation_hits_boundary(self):
        phi_hat, sigma2_hat = ar1_pairwise_closed_form(np.array([1.0, 1.0, 1.0]))
        assert phi_hat == 1.0
        assert sigma2_hat == 0.0

    def test_monte_carlo_consistency(self):
        y = sample_ar1(Ar1Params(0, 1, 0.5), 2000, 50, seed=5)
        phi_hat, sigma2_hat = ar1_pairwise_closed_form(y)
        assert abs(phi_hat - 0.5) < 0.01
        assert abs(sigma2_hat - 1.0) < 0.02

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            ar1_pairwise_closed_form(np.zeros((3, 4)))

    def test_matches_numeric_joint_argmax(self):
        # profile sigma2 out in closed form, then search over phi
        y = sample_ar1(Ar1Params(0, 1, 0.5), 200, 50, seed=6)
        nu, t_len = y.shape
        paired = float(np.sum(y[:, 1:] ** 2) + np.sum(y[:, :-1] ** 2))
        cross = float(np.sum(y[:, 1:] * y[:, :-1]))

        def profiled_negative(phi):
            sigma2 = (paired - 2 * phi * cross) / (2 * nu * (t_len - 1))
            return -float(
                np.sum(ar1_pairwise_loglik(y, Ar1Params(0.0, sigma2, phi)))
            )

        phi_num = minimize_scalar(profiled_negative, -0.999, 0.999, tol=1e-9)
        sigma2_num = (paired - 2 * phi_num * cross) / (2 * nu * (t_len - 1))
        phi_hat, sigma2_hat = ar1_pairwise_closed_form(y)
        assert abs(phi_hat - phi_num) < 1e-4
        assert abs(sigma2_hat - sigma2_num) < 1e-4


class TestGaussianHyvarinen:
    def test_identity_precision(self):
        y = np.array([1.0, 0.0, -1.0])
        npt.assert_allclose(gaussian_hyvarinen(y, np.eye(3)), 0.5 * 2.0 - 3.0, rtol=1e-14)

    def test_at_the_mean(self):
        prec = np.array([[2.0, 0.3], [0.3, 1.5]])
        npt.assert_allclose(
            gaussian_hyvarinen(np.full(2, 0.7), prec, mu=0.7), -np.trace(prec), rtol=1e-14
        )

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        prec = a @ a.T + 4 * np.eye(4)
        y = rng.standard_normal(4)
        mu = 0.4

        def log_density(v):
            d = v - mu
            return -0.5 * d @ prec @ d

        oracle = fd_hyvarinen(y, log_density)
        npt.assert_allclose(gaussian_hyvarinen(y, prec, mu), oracle, atol=1e-5)

    def test_scale_invariance_of_oracle(self):
        # adding any constant to the log-density (a positive rescaling of the
        # density) leaves the finite-difference oracle unchanged
        rng = np.random.default_rng(9)
        prec = np.eye(3) * 2.0
        y = rng.standard_normal(3)
        base = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v)
        shifted = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v + 123.456)
        # the constant cancels up to second-difference rounding, ~eps*123/h^2
        npt.assert_allclose(base, shifted, atol=1e-4)
        npt.assert_allclose(gaussian_hyvarinen(y, prec), base, atol=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_hyvarinen(np.zeros(3), np.eye(4))


class TestAr1Hyvarinen:
    def test_iid_case(self):
        got = ar1_hyvarinen(np.array([1.0, 0.0, -1.0]), Ar1Params(0, 1, 0.0))
        npt.assert_allclose(got, -2.0, rtol=1e-14)

    @pytest.mark.parametrize("phi", [-0.6, 0.0, 0.8])
    def test_zero_data_trace_term(self, phi):
        got = ar1_hyvarinen(np.zeros(5), Ar1Params(0, 1, phi))
        npt.assert_allclose(got, -(2 + 3 * (1 + phi**2)), rtol=1e-14)

    @pytest.mark.parametrize("t_len", range(3, 21))
    @pytest.mark.parametrize("phi", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_matches_generic_gaussian_form(self, t_len, phi):
        rng = np.random.default_rng(t_len)
        y = rng.standard_normal((3, t_len))
        params = Ar1Params(0.1, 1.2, phi)
        direct = ar1_hyvarinen(y, params)
        generic = gaussian_hyvarinen(y, ar1_precision(params, t_len), params.mu)
        npt.assert_allclose(direct, generic, atol=1e-8)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(5)
        params = Ar1Params(0.0, 1.0, 0.45)
        prec = ar1_precision(params, 5)
        oracle = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v)
        npt.assert_allclose(ar1_hyvarinen(y, params), oracle, atol=1e-5)


class TestMa1FullLoglik:
    def test_zero_data_t2(self):
        for alpha in (-0.6, 0.3, 0.8):
            got = ma1_full_loglik(np.zeros(2), Ma1Params(0, 1, alpha))
            npt.assert_allclose(got, -0.5 * np.log(1 + alpha**2 + alpha**4), rtol=1e-12)

    def test_iid_reduction(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(6)
        npt.assert_allclose(
            ma1_full_loglik(y, Ma1Params(0, 1, 0.0)), -0.5 * np.sum(y**2), rtol=1e-14
        )

    def test_matches_dense_logdensity(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(5)
        params = Ma1Params(0.0, 1.0, 0.3)
        cov = ma1_covariance(params, 5)
        dense = -0.5 * np.linalg.slogdet(cov)[1] - 0.5 * y @ np.linalg.solve(cov, y)
        npt.assert_allclose(ma1_full_loglik(y, params), dense, atol=1e-10)


class TestMa1PairwiseLoglik:
    def test_zero_data_t3(self):
        for alpha in (-0.5, 0.2, 0.7):
            got = ma1_pairwise_loglik(np.zeros(3), Ma1Params(0, 1, alpha))
            npt.assert_allclose(got, -np.log(1 + alpha**2 + alpha**4), rtol=1e-12)

    def test_iid_reduction(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(7)
        got = ma1_pairwise_loglik(y, Ma1Params(0, 1, 0.0))
        npt.assert_allclose(got, -0.5 * (np.sum(y[1:] ** 2) + np.sum(y[:-1] ** 2)), rtol=1e-14)

    def test_matches_sum_of_bivariate_logdensities(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(8)
        params = Ma1Params(0.1, 1.2, 0.4)
        var = params.sigma2 * (1 + params.alpha**2)
        cov2 = np.array([[var, params.sigma2 * params.alpha], [params.sigma2 * params.alpha, var]])
        exact = sum(
            stats.multivariate_normal(mean=[params.mu] * 2, cov=cov2).logpdf(y[t - 1 : t + 1])
            for t in range(1, 8)
        )
        npt.assert_allclose(
            ma1_pairwise_loglik(y, params), exact + 7 * np.log(2 * np.pi), atol=1e-10
        )


class TestMa1Hyvarinen:
    def test_iid_case(self):
        got = ma1_hyvarinen(np.array([1.0, 0.0, -1.0]), Ma1Params(0, 1, 0.0))
        npt.assert_allclose(got, -2.0, rtol=1e-14)

    def test_at_the_mean(self):
        params = Ma1Params(0.3, 1.0, 0.5)
        got = ma1_hyvarinen(np.full(4, 0.3), params)
        npt.assert_allclose(got, -np.trace(ma1_precision(params, 4)), rtol=1e-12)

    @pytest.mark.parametrize("t_len", range(2, 21))
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_matches_generic_gaussian_form(self, t_len, alpha):
        rng = np.random.default_rng(100 + t_len)
        y = rng.standard_normal((2, t_len))
        params = Ma1Params(-0.2, 0.9, alpha)
        direct = ma1_hyvarinen(y, params)
        generic = gaussian_hyvarinen(y, ma1_precision(params, t_len), params.mu)
        npt.assert_allclose(direct, generic, atol=1e-8)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal(4)
        params = Ma1Params(0.0, 1.0, 0.6)
        prec = ma1_precision(params, 4)
        oracle = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v)
        npt.assert_allclose(ma1_hyvarinen(y, params), oracle, atol=1e-5)


class TestMa1BandedObjectives:
    """The O(T) MA(1) objectives against dense T x T linear algebra."""

    @pytest.mark.parametrize("t_len", [2, 3, 50, 200])
    @pytest.mark.parametrize("alpha", [-0.999, -0.9, 0.0, 0.5, 0.999])
    def test_match_dense_forms(self, t_len, alpha):
        params = Ma1Params(0.3, 1.7, alpha)
        rng = np.random.default_rng(t_len)
        y = params.mu + np.sqrt(params.sigma2) * rng.standard_normal((4, t_len))
        d = y - params.mu
        cov = ma1_covariance(params, t_len)
        quad = np.sum(d * np.linalg.solve(cov, d.T).T, axis=1)
        full = -0.5 * np.linalg.slogdet(cov)[1] - 0.5 * quad
        hyv = gaussian_hyvarinen(y, ma1_precision(params, t_len), params.mu)
        for got, dense in ((ma1_full_loglik(y, params), full), (ma1_hyvarinen(y, params), hyv)):
            assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_solver_failure_is_a_value_error(self, monkeypatch):
        import minscore.scores as sc

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(sc, "solveh_banded", singular)
        for objective in (ma1_full_loglik, ma1_hyvarinen):
            with pytest.raises(ValueError, match="not positive definite"):
                objective(np.zeros((2, 4)), Ma1Params(0, 1, 0.5))


class TestTotalScore:
    def test_single_series_sign_convention(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal(6)
        params = params_for("ar1", 0.4)
        npt.assert_allclose(
            total_score(y, EstimatorKind.FULL_ML, "ar1", 0.4),
            -ar1_full_loglik(y, params),
            rtol=1e-14,
        )
        npt.assert_allclose(
            total_score(y, EstimatorKind.HYV_UNIVARIATE, "ar1", 0.4),
            ar1_hyvarinen(y, params),
            rtol=1e-14,
        )

    def test_additivity_over_identical_rows(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal(6)
        stacked = np.tile(y, (3, 1))
        for kind in (EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML, EstimatorKind.HYV_UNIVARIATE):
            one = total_score(y, kind, "ma1", 0.3)
            npt.assert_allclose(total_score(stacked, kind, "ma1", 0.3), 3.0 * one, rtol=1e-12)

    def test_matches_row_loop(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((5, 8))
        for model in ("ar1", "ma1"):
            for kind in (EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML, EstimatorKind.HYV_UNIVARIATE):
                brute = sum(float(score_per_series(row, kind, model, 0.25)) for row in y)
                npt.assert_allclose(total_score(y, kind, model, 0.25), brute, atol=1e-12)

    def test_wishart_kind_rejected(self):
        with pytest.raises(ValueError):
            total_score(np.zeros((3, 4)), EstimatorKind.HYV_WISHART, "ar1", 0.1)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", [EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                                      EstimatorKind.HYV_UNIVARIATE])
    def test_min_series_length_is_what_the_objective_accepts(self, model, kind):
        need = min_series_length(kind, model)
        y = np.random.default_rng(20).standard_normal((3, need + 1))
        assert np.all(np.isfinite(score_per_series(y[:, :need], kind, model, 0.3)))
        if need > 1:
            with pytest.raises(ValueError, match=f">= {need}"):
                score_per_series(y[:, :need - 1], kind, model, 0.3)


class TestPropriety:
    """The mean score over data generated at theta0 is minimized near theta0."""

    @pytest.mark.parametrize(
        "model,kind",
        [
            ("ar1", EstimatorKind.HYV_UNIVARIATE),
            ("ma1", EstimatorKind.HYV_UNIVARIATE),
            ("ar1", EstimatorKind.FULL_ML),
            ("ma1", EstimatorKind.PAIRWISE_ML),
        ],
    )
    def test_minimizer_near_truth(self, model, kind):
        theta0 = 0.5
        if model == "ar1":
            y = sample_ar1(params_for("ar1", theta0), 5000, 30, seed=20)
        else:
            y = sample_ma1(params_for("ma1", theta0), 5000, 30, seed=20)
        theta_star = minimize_scalar(
            lambda th: total_score(y, kind, model, th), -0.999, 0.999, tol=1e-7
        )
        assert abs(theta_star - theta0) < 0.02

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", [EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                                      EstimatorKind.HYV_UNIVARIATE])
    def test_score_equation_unbiased(self, model, kind):
        # Monte Carlo mean of the per-series objective gradient at theta0
        # within 5 MC standard errors of zero
        theta0 = -0.5
        nu = 4000
        if model == "ar1":
            y = sample_ar1(params_for("ar1", theta0), nu, 20, seed=21)
        else:
            y = sample_ma1(params_for("ma1", theta0), nu, 20, seed=21)
        h = 1e-5
        grads = (
            score_per_series(y, kind, model, theta0 + h)
            - score_per_series(y, kind, model, theta0 - h)
        ) / (2 * h)
        se = np.std(grads, ddof=1) / np.sqrt(nu)
        assert abs(np.mean(grads)) < 5 * se
