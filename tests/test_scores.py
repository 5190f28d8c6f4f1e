"""Objective functions: frozen spot values, independent oracles, invariants."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import optimize as sp_optimize
from scipy import stats

from minscore import (
    DegenerateDataError,
    EstimatorKind,
    minimize_lanes,
    objective_lanes,
    sample_ar1,
    sample_ma1,
    sample_series,
    series_objective,
    sum_of_squares,
    wishart_context,
)
from minscore.inference import SEARCH_BOUNDS
from minscore.models import _power_jets
from minscore.optimize import GRID_FLOATS, GRID_POINTS
from minscore.scores import _RECIPES, _contract, _dot, _reducer, _terms, min_series_length
from minscore.selfcheck import (
    ar1_covariance,
    ar1_pairwise_closed_form,
    ar1_precision,
    gaussian_hyvarinen,
    ma1_covariance,
    ma1_precision,
)


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


def objective_total(series, kind, model, theta):
    """Total empirical score: the objective summed over all series."""
    return series_objective(series, kind, model).total(theta)


def per_series(y, kind, model, theta):
    """Each row's objective, from a reduction of that row alone."""
    return np.array([objective_total(row, kind, model, theta) for row in np.atleast_2d(y)])


def bivariate_pairs_objective(y, cov2):
    """Negated sum of the consecutive-pair log-densities of one series, each
    pair N(0, cov2), with the log(2 pi) of each pair dropped."""
    pairs = np.stack([y[:-1], y[1:]], axis=-1)
    exact = np.sum(stats.multivariate_normal(mean=[0.0, 0.0], cov=cov2).logpdf(pairs))
    return -(exact + len(pairs) * np.log(2 * np.pi))


class TestAr1FullLoglik:
    def test_zero_data_zero_value(self):
        assert objective_total(np.zeros(3), "full", "ar1", 0.0) == 0.0

    def test_term_by_term_t2(self):
        got = objective_total(np.array([1.0, 1.0]), "full", "ar1", 0.5)
        npt.assert_allclose(got, 0.5 - 0.5 * np.log(0.75), rtol=1e-14)

    def test_iid_reduction(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(9)
        got = objective_total(y, "full", "ar1", 0.0)
        npt.assert_allclose(got, 0.5 * np.sum(y**2), rtol=1e-14)

    def test_matches_dense_gaussian_logdensity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(6)
        cov = ar1_covariance(0.6, 6)
        # the objective drops the (T/2) log(2 pi) of the negated log-density
        dense = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * y @ np.linalg.solve(cov, y)
        npt.assert_allclose(objective_total(y, "full", "ar1", 0.6), dense, rtol=0, atol=1e-10)


class TestAr1PairwiseLoglik:
    def test_zero_data(self):
        got = objective_total(np.zeros(3), "pairwise", "ar1", 0.4)
        npt.assert_allclose(got, -np.log(1 - 0.4**2), rtol=1e-14)

    def test_term_by_term_t2(self):
        got = objective_total(np.array([1.0, 1.0]), "pairwise", "ar1", 0.5)
        npt.assert_allclose(got, 0.5 - 0.5 * np.log(0.75), rtol=1e-14)

    def test_iid_reduction(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(8)
        got = objective_total(y, "pairwise", "ar1", 0.0)
        npt.assert_allclose(got, 0.5 * (np.sum(y[1:] ** 2) + np.sum(y[:-1] ** 2)), rtol=1e-14)

    def test_matches_sum_of_bivariate_logdensities(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(7)
        phi = 0.5
        tau2 = 1 / (1 - phi**2)
        cov2 = np.array([[tau2, tau2 * phi], [tau2 * phi, tau2]])
        npt.assert_allclose(objective_total(y, "pairwise", "ar1", phi),
                            bivariate_pairs_objective(y, cov2), atol=1e-10)


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
        y = sample_ar1(0.5, 2000, 50, seed=5)
        phi_hat, sigma2_hat = ar1_pairwise_closed_form(y)
        assert abs(phi_hat - 0.5) < 0.01
        assert abs(sigma2_hat - 1.0) < 0.02

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            ar1_pairwise_closed_form(np.zeros((3, 4)))

    def test_matches_numeric_joint_argmax(self):
        # profile sigma2 out in closed form, then search over phi; every
        # consecutive pair is N(0, sigma2 / (1 - phi^2) [[1, phi], [phi, 1]])
        y = sample_ar1(0.5, 200, 50, seed=6)
        nu, t_len = y.shape
        paired = float(np.sum(y[:, 1:] ** 2) + np.sum(y[:, :-1] ** 2))
        cross = float(np.sum(y[:, 1:] * y[:, :-1]))
        pairs = np.stack([y[:, :-1], y[:, 1:]], axis=-1).reshape(-1, 2)

        def profiled_negative(phi):
            sigma2 = (paired - 2 * phi * cross) / (2 * nu * (t_len - 1))
            cov2 = sigma2 / (1 - phi**2) * np.array([[1.0, phi], [phi, 1.0]])
            return -float(np.sum(stats.multivariate_normal(cov=cov2).logpdf(pairs)))

        phi_num = sp_optimize.minimize_scalar(profiled_negative, bounds=(-0.999, 0.999),
                                              method="bounded", options={"xatol": 1e-9}).x
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
        got = objective_total(np.array([1.0, 0.0, -1.0]), "hyv", "ar1", 0.0)
        npt.assert_allclose(got, -2.0, rtol=1e-14)

    @pytest.mark.parametrize("phi", [-0.6, 0.0, 0.8])
    def test_zero_data_trace_term(self, phi):
        got = objective_total(np.zeros(5), "hyv", "ar1", phi)
        npt.assert_allclose(got, -(2 + 3 * (1 + phi**2)), rtol=1e-14)

    @pytest.mark.parametrize("t_len", range(3, 21))
    @pytest.mark.parametrize("phi", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_matches_generic_gaussian_form(self, t_len, phi):
        rng = np.random.default_rng(t_len)
        y = rng.standard_normal((3, t_len))
        direct = per_series(y, "hyv", "ar1", phi)
        generic = gaussian_hyvarinen(y, ar1_precision(phi, t_len))
        npt.assert_allclose(direct, generic, atol=1e-8)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(5)
        prec = ar1_precision(0.45, 5)
        oracle = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v)
        npt.assert_allclose(objective_total(y, "hyv", "ar1", 0.45), oracle, atol=1e-5)


class TestMa1FullLoglik:
    def test_zero_data_t2(self):
        for alpha in (-0.6, 0.3, 0.8):
            got = objective_total(np.zeros(2), "full", "ma1", alpha)
            npt.assert_allclose(got, 0.5 * np.log(1 + alpha**2 + alpha**4), rtol=1e-12)

    def test_iid_reduction(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(6)
        npt.assert_allclose(
            objective_total(y, "full", "ma1", 0.0), 0.5 * np.sum(y**2), rtol=1e-14
        )

    def test_matches_dense_logdensity(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(5)
        cov = ma1_covariance(0.3, 5)
        dense = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * y @ np.linalg.solve(cov, y)
        npt.assert_allclose(objective_total(y, "full", "ma1", 0.3), dense, atol=1e-10)


class TestMa1PairwiseLoglik:
    def test_zero_data_t3(self):
        for alpha in (-0.5, 0.2, 0.7):
            got = objective_total(np.zeros(3), "pairwise", "ma1", alpha)
            npt.assert_allclose(got, np.log(1 + alpha**2 + alpha**4), rtol=1e-12)

    def test_iid_reduction(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(7)
        got = objective_total(y, "pairwise", "ma1", 0.0)
        npt.assert_allclose(got, 0.5 * (np.sum(y[1:] ** 2) + np.sum(y[:-1] ** 2)), rtol=1e-14)

    def test_matches_sum_of_bivariate_logdensities(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(8)
        alpha = 0.4
        cov2 = np.array([[1 + alpha**2, alpha], [alpha, 1 + alpha**2]])
        npt.assert_allclose(objective_total(y, "pairwise", "ma1", alpha),
                            bivariate_pairs_objective(y, cov2), atol=1e-10)


class TestMa1Hyvarinen:
    def test_iid_case(self):
        got = objective_total(np.array([1.0, 0.0, -1.0]), "hyv", "ma1", 0.0)
        npt.assert_allclose(got, -2.0, rtol=1e-14)

    def test_at_the_mean(self):
        got = objective_total(np.zeros(4), "hyv", "ma1", 0.5)
        npt.assert_allclose(got, -np.trace(ma1_precision(0.5, 4)), rtol=1e-12)

    @pytest.mark.parametrize("t_len", range(2, 21))
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_matches_generic_gaussian_form(self, t_len, alpha):
        rng = np.random.default_rng(100 + t_len)
        y = rng.standard_normal((2, t_len))
        direct = per_series(y, "hyv", "ma1", alpha)
        generic = gaussian_hyvarinen(y, ma1_precision(alpha, t_len))
        npt.assert_allclose(direct, generic, atol=1e-8)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal(4)
        prec = ma1_precision(0.6, 4)
        oracle = fd_hyvarinen(y, lambda v: -0.5 * v @ prec @ v)
        npt.assert_allclose(objective_total(y, "hyv", "ma1", 0.6), oracle, atol=1e-5)


class TestMa1BandedObjectives:
    """The O(T) MA(1) objectives of each series against dense T x T linear
    algebra."""

    @pytest.mark.parametrize("t_len", [2, 3, 50, 200])
    @pytest.mark.parametrize("alpha", [-0.999, -0.9, 0.0, 0.5, 0.999])
    def test_match_dense_forms(self, t_len, alpha):
        y = np.random.default_rng(t_len).standard_normal((4, t_len))
        cov = ma1_covariance(alpha, t_len)
        quad = np.sum(y * np.linalg.solve(cov, y.T).T, axis=1)
        full = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * quad
        hyv = gaussian_hyvarinen(y, ma1_precision(alpha, t_len))
        for kind, dense in (("full", full), ("hyv", hyv)):
            got = per_series(y, kind, "ma1", alpha)
            assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))


class TestTotalScore:
    def test_single_series_sign_convention(self):
        # minimization orientation: the negated log-likelihood (innovations
        # y_t - phi y_{t-1} and the stationary y_1), and the Hyvarinen loss
        rng = np.random.default_rng(17)
        y = rng.standard_normal(6)
        phi = 0.4
        innovations = np.sum((y[1:] - phi * y[:-1]) ** 2)
        npt.assert_allclose(
            objective_total(y, EstimatorKind.FULL_ML, "ar1", phi),
            0.5 * (innovations + (1 - phi**2) * y[0] ** 2) - 0.5 * np.log(1 - phi**2),
            rtol=1e-14,
        )
        npt.assert_allclose(
            objective_total(y, EstimatorKind.HYV_UNIVARIATE, "ar1", phi),
            gaussian_hyvarinen(y, ar1_precision(phi, 6)),
            rtol=1e-14,
        )

    def test_additivity_over_identical_rows(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal(6)
        stacked = np.tile(y, (3, 1))
        for kind in (EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML, EstimatorKind.HYV_UNIVARIATE):
            one = objective_total(y, kind, "ma1", 0.3)
            npt.assert_allclose(objective_total(stacked, kind, "ma1", 0.3), 3.0 * one, rtol=1e-12)

    def test_matches_row_loop(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((5, 8))
        for model in ("ar1", "ma1"):
            for kind in (EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML, EstimatorKind.HYV_UNIVARIATE):
                brute = sum(per_series(y, kind, model, 0.25))
                npt.assert_allclose(objective_total(y, kind, model, 0.25), brute, atol=1e-12)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", [EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                                      EstimatorKind.HYV_UNIVARIATE])
    def test_min_series_length_is_what_the_objective_accepts(self, model, kind):
        need = min_series_length(kind, model)
        y = np.random.default_rng(20).standard_normal((3, need + 1))
        assert np.all(np.isfinite(per_series(y[:, :need], kind, model, 0.3)))
        if need > 1:
            with pytest.raises(ValueError, match=f">= {need}"):
                series_objective(y[:, :need - 1], kind, model)


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
            y = sample_ar1(theta0, 5000, 30, seed=20)
        else:
            y = sample_ma1(theta0, 5000, 30, seed=20)
        lanes = objective_lanes([series_objective(y, kind, model)])
        [theta_star] = minimize_lanes(lanes, -0.999, 0.999)
        assert abs(theta_star - theta0) < 0.02

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", [EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                                      EstimatorKind.HYV_UNIVARIATE])
    def test_score_equation_unbiased(self, model, kind):
        # Monte Carlo mean of the exact per-series objective gradient at
        # theta0 within 5 MC standard errors of zero
        theta0 = -0.5
        nu = 4000
        if model == "ar1":
            y = sample_ar1(theta0, nu, 20, seed=21)
        else:
            y = sample_ma1(theta0, nu, 20, seed=21)
        grads, _ = series_objective(y, kind, model).derivatives(theta0)
        se = np.std(grads, ddof=1) / np.sqrt(nu)
        assert abs(np.mean(grads)) < 5 * se


def dense_objective(y, kind, model, theta):
    """Per-series objective (minimization orientation, mu = 0, sigma2 = 1)
    from dense T x T or 2 x 2 linear algebra, independent of the statistics."""
    t_len = y.shape[-1]
    cov = (ar1_covariance if model == "ar1" else ma1_covariance)(theta, t_len)
    if kind is EstimatorKind.HYV_UNIVARIATE:
        return gaussian_hyvarinen(y, np.linalg.inv(cov))
    if kind is EstimatorKind.FULL_ML:
        quad = np.sum(y * np.linalg.solve(cov, y.T).T, axis=-1)
        return 0.5 * quad + 0.5 * np.linalg.slogdet(cov)[1]
    pair = cov[:2, :2]
    pairs = np.stack([y[:, :-1], y[:, 1:]], axis=-1)
    quad = np.einsum("npi,ij,npj->n", pairs, np.linalg.inv(pair), pairs)
    return 0.5 * quad + 0.5 * (t_len - 1) * np.linalg.slogdet(pair)[1]


def richardson(f, theta, h):
    """First and second central differences of f at theta, each
    Richardson-extrapolated from steps h and h/2."""
    def d1(step):
        return (f(theta + step) - f(theta - step)) / (2 * step)

    def d2(step):
        return (f(theta + step) - 2 * f(theta) + f(theta - step)) / step**2

    return (4 * d1(h / 2) - d1(h)) / 3, (4 * d2(h / 2) - d2(h)) / 3


PER_SERIES_KINDS = [EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                    EstimatorKind.HYV_UNIVARIATE]
ORACLE_THETAS = [-0.95, 0.0, 0.63, 0.95]


class TestSufficientStatistics:
    """Objectives evaluated from per-series statistics against dense oracles."""

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_objectives_match_dense_references(self, model, kind):
        for t_len in (min_series_length(kind, model), 50, 200):
            y = sample_ar1(0.5, 3, t_len, seed=t_len) if model == "ar1" \
                else sample_ma1(0.5, 3, t_len, seed=t_len)
            for theta in ORACLE_THETAS:
                got = per_series(y, kind, model, theta)
                dense = dense_objective(y, kind, model, theta)
                err = np.max(np.abs(got - dense)) / np.max(np.abs(dense))
                assert err <= 1e-12, (t_len, theta, err)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_derivatives_match_richardson_differences(self, model, kind):
        y = sample_ar1(0.4, 5, 50, seed=3) if model == "ar1" \
            else sample_ma1(0.4, 5, 50, seed=3)
        objective = series_objective(y, kind, model)
        for theta in ORACLE_THETAS:
            grad, hess = objective.derivatives(theta)
            fd_grad, fd_hess = richardson(
                lambda th: per_series(y, kind, model, th), theta, 1e-3)
            assert np.max(np.abs(grad - fd_grad)) <= 1e-7 * np.max(np.abs(grad)), theta
            assert np.max(np.abs(hess - fd_hess)) <= 1e-7 * np.max(np.abs(hess)), theta

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_total_matches_total_score(self, model, kind):
        # the total score: the per-series objectives summed over the rows
        y = sample_ma1(-0.3, 6, 9, seed=4)
        objective = series_objective(y, kind, model)
        for theta in (-0.7, 0.2):
            npt.assert_allclose(objective.total(theta),
                                np.sum(per_series(y, kind, model, theta)), rtol=1e-13)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_total_is_the_lane_formula(self, model, kind):
        # every kind, the Wishart one included, totals pooled . coef + rows * const,
        # one lane of objective_lanes, with no term besides
        y = sample_series(model, 0.4, 16, 8, seed=9)
        objective = series_objective(y, kind, model)
        lanes = objective_lanes([objective])
        theta = np.linspace(-0.95, 0.95, 21)
        coef, const = lanes.terms(theta, 0)
        lane = np.sum(lanes.pooled[0] * coef[0], axis=-1) + lanes.rows[0] * const[0]
        assert np.array_equal(objective.total(theta), lane)
        assert [objective.total(t) for t in theta] == list(lane)

    def test_three_axes_rejected(self):
        y = np.zeros((2, 3, 4))
        with pytest.raises(ValueError,
                           match=r"^expected a \(T,\) or \(nu, T\) array, got shape \(2, 3, 4\)$"):
            series_objective(y, EstimatorKind.FULL_ML, "ar1")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_non_finite_series_rejected(self, model, kind, bad):
        # the objective of such a series was once NaN or inf where fit rejected it
        y = sample_ar1(0.3, 4, 12, seed=5)
        y[1, 3] = bad
        with pytest.raises(ValueError,
                           match=r"^series contain non-finite values \(NaN or inf\)$"):
            series_objective(y, kind, model)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_reads_only_the_statistics(self, model, kind):
        # once reduced, the series can be overwritten: nothing reads them again
        y = sample_ar1(0.3, 4, 12, seed=5)
        objective = series_objective(y, kind, model)
        y[:] = np.nan
        grad, hess = objective.derivatives(0.4)
        assert np.isfinite(objective.total(0.4))
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("t_len", [2, 10])
    def test_wishart_kind_is_the_wishart_context_of_s(self, model, t_len):
        # the Wishart kind reduces the series through S = Y'Y, to the bit
        y = sample_series(model, 0.4, t_len + 6, t_len, seed=t_len)
        got = series_objective(y, EstimatorKind.HYV_WISHART, model)
        want = wishart_context(sum_of_squares(y), len(y), model)
        assert (got.kind, got.model, got.t_len) == (want.kind, want.model, want.t_len)
        assert np.all(got.stats == want.stats) and np.all(got.pooled == want.pooled)

    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    @pytest.mark.parametrize("phi", [-0.995, 0.995])
    def test_ar1_accurate_near_unit_root(self, kind, phi):
        # near |phi| = 1 the plain lag sums grow as 1/(1 - phi^2) and their
        # polynomial cancels to ~1e-13; the statistics used instead keep the
        # quadratic part within a few ulp of its exact rational value
        from fractions import Fraction

        t_len = 30
        y = sample_ar1(phi, 4, t_len, seed=8)
        quad = (per_series(y, kind, "ar1", phi)
                - objective_total(np.zeros(t_len), kind, "ar1", phi))
        p = Fraction(phi)
        for got, row in zip(quad, y):
            d = [Fraction(v) for v in row]
            if kind is EstimatorKind.FULL_ML:
                exact = sum((d[t] - p * d[t - 1]) ** 2 for t in range(1, t_len)) \
                    + (1 - p * p) * d[0] ** 2
            elif kind is EstimatorKind.PAIRWISE_ML:
                exact = sum(d[t] ** 2 + d[t - 1] ** 2 - 2 * p * d[t] * d[t - 1]
                            for t in range(1, t_len))
            else:
                resid = [(1 + p * p) * d[t] - p * (d[t - 1] + d[t + 1])
                         for t in range(1, t_len - 1)]
                exact = sum(r * r for r in resid + [d[0] - p * d[1], d[-1] - p * d[-2]])
            exact /= 2
            assert abs(float(Fraction(float(got)) - exact) / float(exact)) <= 1e-14


# The AR(1) coefficients as both sign halves were once taken: every theta
# contracted with the coefficients of each sign, zero in the other sign's
# statistics, and one of the two picked by np.where; the oracle of the route
# that contracts once and places the result in its theta's own half.
_TWO_HALF_COEF = {
    (kind, sign): np.concatenate([half, 0 * half] if sign > 0 else [0 * half, half], axis=1)
    for kind in EstimatorKind for half in [_RECIPES["ar1", kind][2]] for sign in (1, -1)
}


def two_half_ar1_coef(kind, theta, order):
    negative = np.asarray(theta) < 0
    u = _power_jets(1.0 - np.abs(theta), order)
    if order:
        u[1::2] *= np.where(negative, 1.0, -1.0)[..., None]
    return np.where(negative[..., None], _contract(u, _TWO_HALF_COEF[kind, -1]),
                    _contract(u, _TWO_HALF_COEF[kind, 1]))


class TestJetRoutes:
    """The jets the minimizer takes carry the bits of the routes they replaced."""

    @pytest.mark.parametrize("t_len", [50, 128, 129, 200, 300])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_grid_chunks_match_one_call(self, model, kind, t_len):
        # the grid scan takes GRID_FLOATS // m seeds a call (all 64 for m <=
        # 128); in those chunks, and one seed at a time, every seed's jets are
        # those of the whole grid in one call
        xs = np.linspace(*SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1]
        for order in (0, 2):
            coef, const = _terms(kind, model, t_len, xs, order)
            points = min(GRID_POINTS, GRID_FLOATS // coef.shape[-1])
            for step in (points, 1):
                chunks = [_terms(kind, model, t_len, xs[p:p + step], order)
                          for p in range(0, GRID_POINTS, step)]
                assert np.array_equal(np.concatenate([c for c, _ in chunks], axis=1), coef)
                assert np.array_equal(np.concatenate([k for _, k in chunks], axis=1), const)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kind", PER_SERIES_KINDS)
    def test_ar1_sign_halves_match_both_halves(self, kind, order):
        thetas = np.array([-0.999, -0.6, -1e-9, -0.0, 0.0, 1e-9, 0.3, 0.999])
        for theta in (thetas, thetas.reshape(2, 4), -0.4, 0.4):
            coef = _terms(kind, "ar1", 20, theta, order)[0]
            assert np.array_equal(coef, two_half_ar1_coef(kind, theta, order))


def per_sign_ar1_sums(d, kind):
    # the AR(1) statistics as each sign's half was once computed: its own
    # differences h = s (d_{t-1} + d_{t+1}) - 2 d_t, g = d_t - s d_(neighbour)
    # and e = d_t - s d_{t-1}, each in fresh arrays
    inner, ends, prev = d[..., 1:-1], d[..., [0, -1]], d[..., :-1]
    hyv = kind is EstimatorKind.HYV_UNIVARIATE
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


class TestAr1SumsBits:
    """Both sign halves of the AR(1) statistics come from shared buffers, the
    s = -1 half by exact sign identities; every statistic keeps the bits of
    the per-sign formula."""

    @pytest.mark.parametrize("nu", [1, 3, 200])
    @pytest.mark.parametrize("kind,t_len", [
        (kind, t_len) for kind in (EstimatorKind.FULL_ML, EstimatorKind.HYV_UNIVARIATE)
        for t_len in (2, 3, 4, 50) if t_len >= min_series_length(kind, "ar1")])
    def test_shared_buffers_keep_the_per_sign_bits(self, kind, t_len, nu):
        rng = np.random.default_rng([nu, t_len])
        draws = [rng.standard_normal((nu, t_len)) * scale for scale in (1e-3, 1.0, 1e3)]
        draws += [sample_ar1(phi, nu, t_len, seed=nu + t_len) for phi in (-0.999, 0.999)]
        for y in draws:
            for d in (y, y[0]):  # a stack and one series
                got, want = _reducer(kind, "ar1")(d), per_sign_ar1_sums(d, kind)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
