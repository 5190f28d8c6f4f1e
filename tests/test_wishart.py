"""Wishart score: calculus oracles, gradient checks, estimator consistency."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    SeriesReduction,
    fit,
    fit_lanes,
    minimize_lanes,
    objective_lanes,
    sample_ar1,
    sample_ma1,
    sample_series,
    series_objective,
    sum_of_squares,
    wishart_components,
    wishart_context,
)
from minscore.inference import SEARCH_BOUNDS
from minscore.selfcheck import (
    ar1_covariance,
    hw_grad_samples,
    precision_derivative,
    scale_precision,
    wishart_score,
)


def make_ctx(s, nu, model="ar1"):
    return wishart_context(np.asarray(s, dtype=float), nu=nu, model=model)


def grad(ctx, lam):
    """Exact derivative of the Wishart score in lam."""
    return ctx.derivatives(lam)[0][0]


def estimate(y, model):
    """The Wishart estimate, as :func:`fit` finds it."""
    return fit(y, "hyv-wishart", model).estimate


class TestContext:
    def test_requires_enough_dof(self):
        s = np.eye(3) * 5.0
        with pytest.raises(ValueError):
            wishart_context(s, nu=4, model="ar1")
        wishart_context(s, nu=5, model="ar1")

    def test_non_integral_nu_rejected(self):
        # nu = 20.7 was once read as nu = 20
        with pytest.raises(ValueError, match=r"^nu must be an integer, got 20\.7$"):
            wishart_context(np.eye(3) * 5.0, 20.7, "ar1")

    def test_singular_s_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            wishart_context(np.zeros((2, 2)), nu=10, model="ar1")

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_nu_bound_comes_before_inverting_s(self, model):
        # nu = 5 series of length T = 10 give a singular S; it once failed
        # with "singular sum-of-squares matrix" instead of the bound on nu
        y = sample_series(model, 0.4, 5, 10, seed=3)
        with pytest.raises(ValueError, match=r"Wishart score needs nu >= T \+ 2; got nu=5, T=10"):
            wishart_context(sum_of_squares(y), nu=5, model=model)
        with pytest.raises(ValueError, match=r"Wishart score needs nu >= T \+ 2; got nu=5, T=10"):
            series_objective(y, "hyv-wishart", model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_s_rejected(self, bad):
        s = np.eye(3) * 5.0
        s[1, 2] = s[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            wishart_context(s, nu=10, model="ar1")

    @pytest.mark.parametrize("s,message", [
        (np.ones((2, 3)), "square"),
        (np.full((3, 3), np.nan), "non-finite"),  # and not symmetric, as NaN != NaN
        (np.zeros((3, 3)), r"nu >= T \+ 2"),  # singular too, but not yet factored
        (np.eye(3), r"nu >= T \+ 2"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "must be symmetric"),
    ])
    def test_checks_in_order(self, s, message):
        # each S also fails every later check, since nu = 2 < T + 2; S is
        # factored last (test_singular_s_rejected)
        with pytest.raises(ValueError, match=message):
            wishart_context(s, nu=2, model="ar1")

    def test_non_symmetric_s_rejected(self):
        # the Cholesky factor reads one triangle, so [[2, 5], [0, 2]] was once
        # read as diag(2, 2) without a word
        message = r"^S must be symmetric; the largest \|S - S'\| is 5$"
        with pytest.raises(ValueError, match=message):
            wishart_context([[2.0, 5.0], [0.0, 2.0]], 10, "ar1")
        s = sum_of_squares(np.random.default_rng(0).standard_normal((12, 4)))
        s[3, 1] = np.nextafter(s[3, 1], np.inf)  # one ulp off
        with pytest.raises(ValueError, match="must be symmetric"):
            wishart_context(s, 12, "ma1")


class TestScalarCalculus:
    """T = 1, S = [[4]], nu = 10: closed-form behavior of the score."""

    @staticmethod
    def hw_of_scale(scale):
        # score as a function of the scale entry itself: the precision entry
        # is 1/scale, so HW(scale) = -c*s11^2 + 0.5*(c*s11 - 1/(2*scale))^2,
        # with c = (nu - T - 1) / 2 = 4
        c, s11 = 4.0, 0.25
        return -c * s11**2 + 0.5 * (c * s11 - 0.5 / scale) ** 2

    # the part of hw_of_scale free of the scale, 0.5 c^2 s11^2 - c s11^2,
    # which the library's score omits
    FREE_PART = 0.5 * 4.0**2 * 0.25**2 - 4.0 * 0.25**2

    def test_value_and_minimizer_over_scale(self):
        # c = (nu-T-1)/2 = 4, s^{11} = 1/4: HW(scale) = -4/16 + 0.5*(1 - 1/(2*scale))^2,
        # minimized at scale = s/(nu-2) = 0.5 where it equals -0.25
        npt.assert_allclose(
            self.hw_of_scale(0.5), -4 / 16 + 0.5 * (1 - 1 / (2 * 0.5)) ** 2, rtol=1e-14
        )
        scales = np.linspace(0.05, 3.0, 59001)
        best = scales[int(np.argmin(self.hw_of_scale(scales)))]
        npt.assert_allclose(best, 0.5, atol=1e-4)

    def test_library_score_agrees_via_ar1_map(self):
        # for T = 1 the AR(1) map gives scale 1/(1-phi^2); the score must
        # equal the hand formula evaluated at that scale, less its part free
        # of the scale
        ctx = make_ctx([[4.0]], nu=10)
        for phi in (-0.7, 0.0, 0.6):
            npt.assert_allclose(
                ctx.total(phi), self.hw_of_scale(1.0 / (1.0 - phi**2)) - self.FREE_PART,
                rtol=1e-12,
            )

    def test_t1_estimate_matches_closed_form(self):
        # with s = sum of squares > nu - 2 the fitted AR(1) scale entry
        # 1/(1 - phi_hat^2) equals s / (nu - 2); fit needs T >= 2, so the
        # score is minimized directly
        rng = np.random.default_rng(1)
        y = 1.5 * rng.standard_normal((10, 1))
        s = float(np.sum(y * y))
        assert s > 8.0
        [phi_hat] = minimize_lanes(objective_lanes([make_ctx([[s]], nu=10)]), *SEARCH_BOUNDS)
        assert np.isfinite(phi_hat)
        npt.assert_allclose(1.0 / (1.0 - phi_hat**2), s / 8.0, rtol=1e-5)

    def test_t1_gradient_zero_at_stationary_point(self):
        rng = np.random.default_rng(2)
        y = 1.5 * rng.standard_normal((10, 1))
        s = float(np.sum(y * y))
        phi_star = np.sqrt(1.0 - 8.0 / s)
        ctx = make_ctx([[s]], nu=10)
        assert abs(grad(ctx, float(phi_star))) < 1e-8


class TestSignSymmetry:
    def test_even_in_phi_for_diagonal_s(self):
        # S with zero odd-lag products: the AR(1) precision enters only through
        # -phi off-diagonals and phi^2 diagonals, so the score is even in phi
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        y = q * np.array([2.0, 1.5, 1.0, 2.5, 3.0])  # orthogonal scaled columns
        s = sum_of_squares(y)
        ctx = make_ctx(s, nu=12)
        for phi in (0.2, 0.5, 0.8):
            npt.assert_allclose(ctx.total(phi), ctx.total(-phi), rtol=1e-12)


class TestGradient:
    @pytest.mark.parametrize("phi", [-0.5, 0.0, 0.5])
    def test_matches_finite_difference_t5(self, phi):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((20, 5))
        ctx = make_ctx(sum_of_squares(y), nu=20)
        h = 1e-5
        fd = (ctx.total(phi + h) - ctx.total(phi - h)) / (2 * h)
        assert abs(grad(ctx, phi) - fd) <= 1e-4 * max(1.0, abs(fd))

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("t_len", [3, 5, 10])
    @pytest.mark.parametrize("theta", [-0.8, -0.4, 0.0, 0.4, 0.8])
    def test_grid_consistency(self, model, t_len, theta):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((t_len + 8, t_len))
        ctx = make_ctx(sum_of_squares(y), nu=t_len + 8, model=model)
        h = 1e-6
        fd = (ctx.total(theta + h) - ctx.total(theta - h)) / (2 * h)
        assert abs(grad(ctx, theta) - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_unbiased_at_truth(self):
        # Monte Carlo mean of the score gradient at the true parameter is zero
        # within 5 MC standard errors
        grads = hw_grad_samples("ar1", 0.5, nu=50, t_len=10, n_draws=1000, seed=6)
        se = np.std(grads, ddof=1) / np.sqrt(len(grads))
        assert abs(np.mean(grads)) < 5 * se

    def test_unbiased_at_truth_ma(self):
        grads = hw_grad_samples("ma1", -0.5, nu=50, t_len=10, n_draws=1000, seed=7)
        se = np.std(grads, ddof=1) / np.sqrt(len(grads))
        assert abs(np.mean(grads)) < 5 * se


def sensitivity(model, lam, t_len):
    """The K of :func:`wishart_components`, at the fewest series it accepts."""
    return wishart_components(model, lam, t_len + 4, t_len)[1]


class TestSensitivity:
    def test_closed_form_values(self):
        # AR(1): K = (T - 1 + 2 phi^2 (T - 2)) / 2
        assert sensitivity("ar1", 0.5, 50) == (49 + 24) / 2
        for t_len in (2, 5, 17):
            assert sensitivity("ar1", 0.0, t_len) == (t_len - 1) / 2

    @pytest.mark.parametrize("t_len", [2, 3, 10, 25, 50])
    @pytest.mark.parametrize("phi", [-0.9, -0.3, 0.0, 0.3, 0.9])
    def test_matches_brute_force_quarter_sum(self, t_len, phi):
        dprec = precision_derivative("ar1", phi, t_len)
        brute = 0.0
        for i in range(t_len):
            for j in range(t_len):
                brute += dprec[j, i] ** 2
        brute *= 0.25
        assert abs(sensitivity("ar1", phi, t_len) - brute) < 1e-10

    def test_ma_derivative_matches_finite_difference_of_entries(self):
        # the numeric derivative is itself central-difference based; compare
        # against a wider independent step
        t_len, alpha = 6, 0.4
        dprec = precision_derivative("ma1", alpha, t_len)
        h = 1e-4
        wide = (
            scale_precision("ma1", alpha + h, t_len) - scale_precision("ma1", alpha - h, t_len)
        ) / (2 * h)
        npt.assert_allclose(dprec, wide, atol=1e-6)


class TestVariability:
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5])
    def test_matches_monte_carlo(self, model, theta):
        # exact mean square of the gradient vs 4000 seeded Wishart draws,
        # within 4 Monte Carlo standard errors
        nu, t_len = 40, 10
        g2 = hw_grad_samples(model, theta, nu=nu, t_len=t_len, n_draws=4000, seed=70) ** 2
        se = np.std(g2, ddof=1) / np.sqrt(len(g2))
        exact = wishart_components(model, theta, nu, t_len)[0]
        assert abs(np.mean(g2) - exact) <= 4 * se, (np.mean(g2), exact, se)

    @pytest.mark.parametrize("nu", [5, 8, 30])
    @pytest.mark.parametrize("phi", [-0.8, 0.3])
    def test_scalar_case_is_inverse_chi_square(self, nu, phi):
        # T = 1: S = chi2_nu / psi with psi = 1 - phi^2, so 1/S has variance
        # 2 psi^2 / ((nu-2)^2 (nu-4)); the gradient is -c/2 * D / S with
        # D = -2 phi and c = (nu-2)/2, giving phi^2 psi^2 / (2 (nu-4))
        psi = 1.0 - phi**2
        expected = phi**2 * psi**2 / (2.0 * (nu - 4))
        npt.assert_allclose(wishart_components("ar1", phi, nu, 1)[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 2, 50])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_components_share_one_set_of_traces(self, monkeypatch, model, t_len):
        import minscore.wishart as wishart

        j, k = wishart_components(model, 0.6, t_len + 6, t_len)
        calls = []
        real = wishart._derivative_traces
        monkeypatch.setattr(wishart, "_derivative_traces",
                            lambda *args: calls.append(args) or real(*args))
        assert wishart_components(model, 0.6, t_len + 6, t_len) == (j, k)
        assert len(calls) == 1

    @pytest.mark.parametrize("t_len", [2, 50])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_fit_sd_is_sqrt_j_over_k(self, monkeypatch, model, t_len):
        # a Wishart fit's sd is sqrt(J) / K of the pooled score, with both
        # read from one computation of the traces
        import minscore.wishart as wishart

        nu = t_len + 6
        y = sample_series(model, 0.6, nu, t_len, seed=t_len)
        calls = []
        real = wishart._derivative_traces
        monkeypatch.setattr(wishart, "_derivative_traces",
                            lambda *args: calls.append(args) or real(*args))
        record = fit(y, "hyv-wishart", model)
        assert len(calls) == 1
        j, k = wishart_components(model, record.estimate, nu, t_len)
        npt.assert_allclose(record.sd, np.sqrt(j) / k, rtol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 2, 3, 50, 201])
    def test_ar1_traces_closed_form(self, t_len):
        # tr(D Psi), tr(D Psi D Psi) and ||D||^2 in closed form against the
        # dense product of the precision and its derivative
        import minscore.wishart as wishart

        for phi in np.linspace(-0.999, 0.999, 37):
            deriv = precision_derivative("ar1", phi, t_len)
            d_psi = deriv @ scale_precision("ar1", phi, t_len)
            dense = (np.trace(d_psi), np.sum(d_psi * d_psi.T), np.sum(deriv * deriv))
            npt.assert_allclose(wishart._derivative_traces("ar1", phi, t_len), dense,
                                rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("lam", [1.0, -1.0, 1.5, np.nan, np.inf])
    def test_lam_outside_the_samplers_bound_rejected(self, model, lam):
        # ("ar1", 1.0, 20, 5) once returned (2.26, 5.0) for a singular scale
        # precision, and NaN returned NaN; one bad entry fails an array
        message = f"the Wishart information needs |lam| < 1, got {lam}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wishart_components(model, lam, 20, 5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wishart_components(model, np.array([[0.3, 0.999], [lam, -0.2]]), 20, 5)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 50])
    def test_array_lam_gives_each_entry_its_own_bits(self, model, t_len):
        # fit_lanes reads every lane's J and K in one call; a lane's values do
        # not depend on the others
        lam = np.linspace(-0.999, 0.999, 12).reshape(3, 4)
        j, k = wishart_components(model, lam, t_len + 10, t_len)
        assert j.shape == k.shape == (3, 4)
        for index, entry in np.ndenumerate(lam):
            assert (j[index], k[index]) == wishart_components(model, entry, t_len + 10, t_len)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_lanes_take_one_call(self, monkeypatch, model):
        import minscore.wishart as wishart

        reductions = [SeriesReduction(sample_series(model, 0.6, 30, 10, seed), ["hyv-wishart"],
                                      model) for seed in range(5)]
        calls = []
        real = wishart._derivative_traces
        monkeypatch.setattr(wishart, "_derivative_traces",
                            lambda *args: calls.append(args) or real(*args))
        records = fit_lanes(reductions, "hyv-wishart")
        assert len(calls) == 1 and calls[0][1].shape == (5,)
        assert records == [fit(r, "hyv-wishart", model) for r in reductions]

    def test_needs_four_extra_dof(self):
        assert wishart_components("ar1", 0.3, 14, 10)[0] > 0
        with pytest.raises(ValueError, match=r"nu >= T \+ 4"):
            wishart_components("ar1", 0.3, 13, 10)

    @pytest.mark.parametrize("nu,t_len,message", [
        (20.7, 5, "nu must be an integer, got 20.7"),
        (20, 5.0, "series length must be an integer, got 5.0"),
    ])
    def test_non_integral_sizes_rejected(self, nu, t_len, message):
        # wishart_components("ar1", 0.5, 20.7, 5) once returned J = 0.378
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wishart_components("ar1", 0.5, nu, t_len)
        assert wishart_components("ar1", 0.5, np.int64(20), np.int32(5)) == (
            wishart_components("ar1", 0.5, 20, 5))


class TestEstimate:
    def test_grid_argmin_monte_carlo(self):
        y = sample_ar1(0.5, 200, 50, seed=8)
        ctx = make_ctx(sum_of_squares(y), nu=200)
        grid = np.arange(-0.99, 0.99, 0.001)
        vals = [ctx.total(p) for p in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(best - 0.5) < 0.03
        # the bounded minimizer lands on the same optimum
        assert abs(estimate(y, "ar1") - best) < 1e-3

    def test_row_permutation_invariance(self):
        y = sample_ma1(0.4, 30, 8, seed=9)
        shuffled = y[np.random.default_rng(10).permutation(30)]
        npt.assert_allclose(estimate(y, "ma1"), estimate(shuffled, "ma1"), atol=1e-9)

    def test_refuses_small_nu(self):
        y = sample_ar1(0.2, 8, 7, seed=11)
        with pytest.raises(ValueError):
            estimate(y, "ar1")

    def test_ar_mean_estimate_at_09(self):
        # mean over 200 replicates within 0.01 of 0.9
        estimates = []
        for rep in range(200):
            seed = np.random.SeedSequence(entropy=12, spawn_key=(rep,))
            y = sample_ar1(0.9, 200, 50, seed)
            estimates.append(estimate(y, "ar1"))
        assert abs(np.mean(estimates) - 0.9) < 0.01

    def test_ma_mean_estimate_at_zero(self):
        estimates = []
        for rep in range(200):
            seed = np.random.SeedSequence(entropy=13, spawn_key=(rep,))
            y = sample_ma1(0.0, 200, 50, seed)
            estimates.append(estimate(y, "ma1"))
        assert abs(np.mean(estimates)) < 0.005


class TestScalePrecision:
    def test_ar1_t1_special_case(self):
        npt.assert_allclose(scale_precision("ar1", 0.6, 1), [[1 - 0.36]], rtol=1e-14)
        cov = ar1_covariance(0.6, 1)
        npt.assert_allclose(scale_precision("ar1", 0.6, 1) @ cov, np.eye(1), atol=1e-12)


def dense_precision_derivative(model, lam, t_len):
    """-P Omega' P from the dense covariance derivative (unit innovations)."""
    prec = scale_precision(model, lam, t_len)
    if model == "ar1":
        lag = np.abs(np.subtract.outer(np.arange(t_len), np.arange(t_len)))
        cov = lam**lag / (1 - lam**2)
        dcov = (lag * lam ** np.maximum(lag - 1, 0) + 2 * lam * cov) / (1 - lam**2)
    else:
        dcov = 2 * lam * np.eye(t_len) + np.eye(t_len, k=1) + np.eye(t_len, k=-1)
    return -prec @ dcov @ prec


class TestDenseForms:
    """The statistics-based Wishart terms against their dense T x T forms."""

    @pytest.mark.parametrize("t_len", [1, 2, 10, 50])
    @pytest.mark.parametrize("alpha", [-0.95, 0.0, 0.63, 0.95])
    def test_ma_precision_derivative(self, t_len, alpha):
        dense = dense_precision_derivative("ma1", alpha, t_len)
        got = precision_derivative("ma1", alpha, t_len)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("theta", [-0.95, 0.0, 0.63, 0.95])
    def test_variability_and_sensitivity(self, model, t_len, theta):
        nu = t_len + 20
        d = dense_precision_derivative(model, theta, t_len)
        d_psi = d @ scale_precision(model, theta, t_len)
        a, b = np.trace(d_psi), np.trace(d_psi @ d_psi)
        c, m = 0.5 * (nu - t_len - 1), nu - t_len
        j = c * c / 4 * (2 * a * a + 2 * (m - 1) * b) / (m * (m - 1) ** 2 * (m - 3))
        got_j, got_k = wishart_components(model, theta, nu, t_len)
        npt.assert_allclose(got_j, j, rtol=1e-12)
        npt.assert_allclose(got_k, 0.25 * np.sum(d * d), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 10])
    def test_score_and_gradient(self, model, t_len):
        rng = np.random.default_rng(t_len)
        nu = t_len + 6
        s = sum_of_squares(rng.standard_normal((nu, t_len)))
        ctx = make_ctx(s, nu=nu, model=model)
        c, s_inv = 0.5 * (nu - t_len - 1), np.linalg.inv(s)  # a dense reference
        # the score's part free of lam, which the context omits
        free = 0.5 * c * c * np.sum(s_inv**2) - c * np.sum(np.diag(s_inv) ** 2)
        for lam in (-0.95, -0.3, 0.0, 0.63, 0.95):
            resid = c * s_inv - 0.5 * scale_precision(model, lam, t_len)
            dense = 0.5 * np.sum(resid * resid) - c * np.sum(np.diag(s_inv) ** 2)
            npt.assert_allclose(ctx.total(lam), dense - free, rtol=1e-12, atol=1e-12)
            dense_grad = -0.5 * np.sum(resid * dense_precision_derivative(model, lam, t_len))
            npt.assert_allclose(grad(ctx, lam), dense_grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_score_reads_only_the_statistics(self, model):
        # the context keeps no T x T array, not even as the base of a view,
        # only the full family's statistics of the rows of L^{-1}: the T = 6
        # squared DST-I coordinates (MA(1)) or the 8 sums of both AR(1) sign halves
        y = sample_ma1(0.3, 20, 6, seed=14)
        ctx = make_ctx(sum_of_squares(y), nu=20, model=model)
        width = 6 if model == "ma1" else 8
        assert ctx.pooled.shape == (width,)
        for value in vars(ctx).values():
            assert np.size(value) <= width and np.size(getattr(value, "base", None)) <= width
        assert np.isfinite(ctx.total(0.4)) and np.isfinite(grad(ctx, 0.4))


def gauss_jordan_inverse(s):
    """Inverse by Gauss-Jordan elimination with partial pivoting in long double."""
    a = np.array(s, dtype=np.longdouble)
    inv = np.eye(len(a), dtype=np.longdouble)
    for k in range(len(a)):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]], inv[[k, p]] = a[[p, k]], inv[[p, k]]
        inv[k] /= a[k, k]
        a[k] /= a[k, k]
        m = a[:, k].copy()
        m[k] = 0
        a -= np.outer(m, a[k])
        inv -= np.outer(m, inv[k])
    return inv


@pytest.mark.parametrize("model", ["ar1", "ma1"])
@pytest.mark.parametrize("t_len", [1, 2, 3, 10, 50])
def test_total_is_the_dense_score_less_its_free_part(model, t_len):
    # the statistics of L^{-1}'s rows against the dense score of S^{-1}, up
    # to the search bound, T = 1 (P = 1 - phi^2) and T = 2 (no interior) included
    s = sum_of_squares(sample_series(model, 0.5, t_len + 40, t_len, seed=t_len))
    ctx = make_ctx(s, nu=t_len + 40, model=model)
    free = wishart_score(s, t_len + 40, model, None)
    for theta in (-0.999, -0.95, 0.0, 0.6, 0.95, 0.999):
        want = wishart_score(s, t_len + 40, model, theta) - free
        npt.assert_allclose(ctx.total(theta), want, rtol=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="the oracle needs a long double wider than double")
@pytest.mark.parametrize("model", ["ar1", "ma1"])
@pytest.mark.parametrize("t_len", [1, 2, 10, 50])
def test_s_inverse_against_extended_precision(model, t_len):
    # the total against -(c/2) <S^{-1}, P> + ||P||_F^2 / 8 with S^{-1} from
    # long-double Gauss-Jordan; the worst error over the cases, in ulps of
    # the sum of the magnitudes of the terms.  At T = 1, 2, 10 and 50 it is
    # 13.2, 4.3, 5.4 and 4.9 for AR(1) (12.0, 2.9, 3.2 and 5.3 when the
    # statistics were read from a dense S^{-1}) and 2.0, 2.4, 13.8 and 29.2
    # for MA(1)
    worst = 0.0
    for theta in (-0.9, 0.0, 0.5, 0.9):
        for seed in range(5):
            s = sum_of_squares(sample_series(model, theta, 200, t_len, seed))
            ctx = make_ctx(s, nu=200, model=model)
            s_inv, c = gauss_jordan_inverse(s), 0.5 * (200 - t_len - 1)
            for lam in (-0.95, 0.0, 0.6, 0.95):
                p = scale_precision(model, lam, t_len).astype(np.longdouble)
                terms = -0.5 * c * s_inv * p
                exact = np.sum(terms) + np.sum(p * p) / 8
                scale = np.sum(np.abs(terms)) + np.sum(p * p) / 8
                err = abs(ctx.total(lam) - exact) / np.spacing(float(scale))
                worst = max(worst, float(err))
    assert worst <= 2 * t_len + 20, worst
