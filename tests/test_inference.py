"""Godambe estimation, Fisher information, relative efficiency and fit."""

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    DegenerateDataError,
    EstimatorKind,
    InfoMethod,
    are,
    fisher_information,
    fit,
    godambe_analytic,
    godambe_empirical,
    godambe_montecarlo,
    k_analytic_ar1,
    params_for,
    sample_ar1,
    sample_ma1,
    score_per_series,
)


def per_series_moments(y, kind, model, theta):
    """Gradient/second-derivative samples used to form standard errors of the
    Godambe components in cross-method comparisons."""
    h = 1e-5
    g = (score_per_series(y, kind, model, theta + h)
         - score_per_series(y, kind, model, theta - h)) / (2 * h)
    hh = 1e-4
    k = (score_per_series(y, kind, model, theta + hh)
         - 2 * score_per_series(y, kind, model, theta)
         + score_per_series(y, kind, model, theta - hh)) / hh**2
    return g, k


class TestGodambeEmpirical:
    def test_information_identity_for_full_ml(self):
        # J ~ K for the log-score at the truth (10% relative at nu=2000)
        y = sample_ar1(params_for("ar1", 0.5), 2000, 50, seed=40)
        comps = godambe_empirical(y, EstimatorKind.FULL_ML, "ar1", 0.5)
        assert abs(comps.j_hat - comps.k_hat) / comps.k_hat < 0.10

    def test_hyv_univariate_sd_matches_reference(self):
        # G estimated on nu=2000 series; the sd quoted for the reference study
        # size (nu=200) must come out at 0.0101 +/- 0.0005
        y = sample_ar1(params_for("ar1", 0.0), 2000, 50, seed=41)
        comps = godambe_empirical(y, EstimatorKind.HYV_UNIVARIATE, "ar1", 0.0)
        assert abs(comps.sd(200) - 0.0101) < 0.0005

    def test_repeated_rows_are_degenerate(self):
        from minscore import minimize_scalar, total_score

        rng = np.random.default_rng(42)
        y = np.tile(rng.standard_normal(20), (3, 1))
        # at the shared per-series optimum every per-series gradient vanishes
        theta_hat = minimize_scalar(
            lambda th: total_score(y, EstimatorKind.PAIRWISE_ML, "ar1", th),
            -0.999, 0.999, tol=1e-12,
        )
        with pytest.raises(DegenerateDataError):
            godambe_empirical(y, EstimatorKind.PAIRWISE_ML, "ar1", theta_hat)

    def test_wishart_kind_rejected(self):
        y = sample_ar1(params_for("ar1", 0.1), 30, 8, seed=43)
        with pytest.raises(ValueError):
            godambe_empirical(y, EstimatorKind.HYV_WISHART, "ar1", 0.1)

    def test_needs_two_series(self):
        with pytest.raises(ValueError):
            godambe_empirical(np.zeros((1, 10)) + 1.0, EstimatorKind.FULL_ML, "ar1", 0.0)

    def test_invariant_g_formula(self):
        y = sample_ma1(params_for("ma1", 0.3), 500, 20, seed=44)
        comps = godambe_empirical(y, EstimatorKind.PAIRWISE_ML, "ma1", 0.3)
        npt.assert_allclose(comps.g_hat, comps.k_hat**2 / comps.j_hat, rtol=1e-12)
        assert comps.g_hat > 0


class TestGodambeMonteCarlo:
    def test_agrees_with_empirical(self):
        # within 3 combined MC standard errors, component by component
        theta0 = 0.5
        nu = 3000
        y = sample_ar1(params_for("ar1", theta0), nu, 30, seed=45)
        emp = godambe_empirical(y, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        mc = godambe_montecarlo(
            "ar1", theta0, EstimatorKind.HYV_UNIVARIATE, nu, seed=46, t_len=30
        )
        g_emp, k_emp = per_series_moments(y, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        draws = sample_ar1(params_for("ar1", theta0), nu, 30, seed=46)
        g_mc, k_mc = per_series_moments(draws, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        se_j = np.sqrt(np.var(g_emp**2, ddof=1) / nu + np.var(g_mc**2, ddof=1) / nu)
        se_k = np.sqrt(np.var(k_emp, ddof=1) / nu + np.var(k_mc, ddof=1) / nu)
        assert abs(emp.j_hat - mc.j_hat) < 3 * se_j
        assert abs(emp.k_hat - mc.k_hat) < 3 * se_k

    def test_wishart_k_is_analytic(self):
        comps = godambe_montecarlo(
            "ar1", 0.5, EstimatorKind.HYV_WISHART, 500, seed=47, t_len=50, nu=200
        )
        npt.assert_allclose(comps.k_hat, k_analytic_ar1(0.5, 50), rtol=1e-12)
        assert abs(comps.k_hat - 36.5) < 0.5

    def test_wishart_sd_normalization(self):
        # sd via 1/sqrt(nu*g) equals sqrt(Var of the pooled gradient)/K
        nu, t_len = 200, 50
        comps = godambe_montecarlo(
            "ar1", 0.0, EstimatorKind.HYV_WISHART, 500, seed=48, t_len=t_len, nu=nu
        )
        j_total = comps.j_hat / nu
        npt.assert_allclose(comps.sd(nu), np.sqrt(j_total) / comps.k_hat, rtol=1e-12)
        # Table value 0.0117 at phi=0 with generous MC allowance (B=500)
        assert abs(comps.sd(nu) - 0.0117) < 0.0012

    def test_law_of_large_numbers(self):
        small = godambe_montecarlo(
            "ar1", 0.3, EstimatorKind.HYV_WISHART, 50, seed=49, t_len=10, nu=40
        )
        big = godambe_montecarlo(
            "ar1", 0.3, EstimatorKind.HYV_WISHART, 5000, seed=49, t_len=10, nu=40
        )
        huge = godambe_montecarlo(
            "ar1", 0.3, EstimatorKind.HYV_WISHART, 20000, seed=50, t_len=10, nu=40
        )
        assert abs(big.j_hat - huge.j_hat) < abs(small.j_hat - huge.j_hat)

    def test_needs_wishart_nu(self):
        with pytest.raises(ValueError):
            godambe_montecarlo("ar1", 0.3, EstimatorKind.HYV_WISHART, 100, seed=0, t_len=10)

    def test_minimum_draws(self):
        with pytest.raises(ValueError):
            godambe_montecarlo("ar1", 0.3, EstimatorKind.FULL_ML, 10, seed=0, t_len=10)


class TestFisherInformation:
    def test_ar1_at_zero(self):
        # I = T - 1 = 49 per series; sd at nu=200 is 1/sqrt(200*49) = 0.0101
        info = fisher_information("ar1", 0.0, t_len=50, n_draws=4000, seed=51)
        assert abs(1.0 / np.sqrt(200 * info) - 0.0101) < 0.0005
        assert abs(info - 49.0) < 3.0

    def test_ma1_at_zero(self):
        info = fisher_information("ma1", 0.0, t_len=50, n_draws=4000, seed=52)
        assert abs(1.0 / np.sqrt(200 * info) - 0.0101) < 0.0005

    def test_methods_agree(self):
        emp = fisher_information("ar1", 0.5, InfoMethod.EMPIRICAL,
                                 t_len=30, n_draws=3000, seed=53)
        mc = fisher_information("ar1", 0.5, InfoMethod.MONTE_CARLO,
                                t_len=30, n_draws=3000, seed=54)
        # I ~ 40 at these sizes; 3 combined SEs is roughly 3*I*sqrt(2*2/n)
        combined = 3 * emp * np.sqrt(4.0 / 3000)
        assert abs(emp - mc) < combined

    def test_analytic_method_rejected(self):
        with pytest.raises(ValueError):
            fisher_information("ar1", 0.0, InfoMethod.ANALYTIC, t_len=10)


class TestAre:
    def test_reference_values(self):
        npt.assert_allclose(are(0.0041, 0.0244), (0.0041 / 0.0244) ** 2, rtol=1e-12)
        assert abs(are(0.0041, 0.0244) - 0.0282) < 5e-4  # table shows 0.0278 from unrounded sds
        assert abs(are(0.0055, 0.0167) - 0.1085) < 5e-4  # table shows 0.1064
        assert are(0.01, 0.01) == 1.0

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            are(0.0, 0.01)


class TestFit:
    def test_all_kinds_recover_truth(self):
        # mean over 200 replicates within 0.01 of the truth, every estimator
        sums = {kind: 0.0 for kind in EstimatorKind}
        reps = 200
        for rep in range(reps):
            seed = np.random.SeedSequence(entropy=55, spawn_key=(rep,))
            y = sample_ar1(params_for("ar1", 0.5), 200, 50, seed)
            for kind in EstimatorKind:
                sums[kind] += fit(y, kind, "ar1", compute_sd=False).estimate
        for kind, total in sums.items():
            assert abs(total / reps - 0.5) < 0.01, kind

    def test_ma_hyv_sd_at_09(self):
        y = sample_ma1(params_for("ma1", 0.9), 200, 50, seed=56)
        record = fit(y, EstimatorKind.HYV_UNIVARIATE, "ma1")
        assert abs(record.sd - 0.0064) < 0.0008

    def test_full_vs_pairwise_at_independence(self):
        y = sample_ar1(params_for("ar1", 0.0), 200, 50, seed=57)
        full = fit(y, EstimatorKind.FULL_ML, "ar1", compute_sd=False)
        pair = fit(y, EstimatorKind.PAIRWISE_ML, "ar1", compute_sd=False)
        assert abs(full.estimate - pair.estimate) < 1e-3

    def test_are_of_full_ml_against_itself(self):
        y = sample_ar1(params_for("ar1", 0.4), 400, 30, seed=58)
        record = fit(y, EstimatorKind.FULL_ML, "ar1")
        self_rel = are(record.sd, record.sd)
        assert self_rel == 1.0
        # routed through the Monte Carlo Godambe path instead
        mc = fit(y, EstimatorKind.FULL_ML, "ar1", info_method=InfoMethod.MONTE_CARLO,
                 mc_draws=4000, seed=59)
        assert abs(are(record.sd, mc.sd) - 1.0) < 0.05

    def test_boundary_flag_from_closed_form(self):
        y = np.tile([1.0, 1.0, 1.0], (3, 1))
        record = fit(y, EstimatorKind.PAIRWISE_ML, "ar1")
        assert record.boundary_flag
        assert record.estimate == 1.0
        assert record.sd is None and record.are is None

    def test_are_filled_when_baseline_given(self):
        y = sample_ar1(params_for("ar1", 0.5), 200, 50, seed=60)
        baseline = fit(y, EstimatorKind.FULL_ML, "ar1")
        record = fit(y, EstimatorKind.PAIRWISE_ML, "ar1", sd_mle=baseline.sd)
        assert 0.5 < record.are < 1.1

    def test_wishart_requires_enough_series(self):
        y = sample_ar1(params_for("ar1", 0.2), 10, 30, seed=61)
        with pytest.raises(ValueError):
            fit(y, EstimatorKind.HYV_WISHART, "ar1")

    def test_wishart_sd_is_exact(self):
        y = sample_ma1(params_for("ma1", 0.3), 60, 12, seed=65)
        record = fit(y, EstimatorKind.HYV_WISHART, "ma1")
        comps = godambe_analytic("ma1", record.estimate, t_len=12, nu=60)
        assert comps.method is InfoMethod.ANALYTIC
        assert record.sd == comps.sd(60)
        # the Monte Carlo reference at many draws agrees to a few percent
        mc = godambe_montecarlo("ma1", record.estimate, EstimatorKind.HYV_WISHART,
                                8000, seed=66, t_len=12, nu=60)
        assert abs(mc.sd(60) / record.sd - 1.0) < 0.05

    def test_wishart_sd_needs_four_extra_series(self):
        # the point estimate needs nu >= T + 2, its sd nu >= T + 4
        y = sample_ar1(params_for("ar1", 0.2), 13, 10, seed=67)
        assert not fit(y, EstimatorKind.HYV_WISHART, "ar1", compute_sd=False).boundary_flag
        with pytest.raises(ValueError, match=r"nu >= T \+ 4"):
            fit(y, EstimatorKind.HYV_WISHART, "ar1")

    def test_sd_method_must_suit_the_kind(self):
        y = sample_ar1(params_for("ar1", 0.2), 30, 8, seed=68)
        with pytest.raises(ValueError, match="montecarlo"):
            fit(y, EstimatorKind.HYV_WISHART, "ar1", info_method=InfoMethod.MONTE_CARLO)
        with pytest.raises(ValueError, match="analytic"):
            fit(y, EstimatorKind.FULL_ML, "ar1", info_method=InfoMethod.ANALYTIC)

    def test_godambe_sd_predicts_sampling_scatter(self):
        # across replicates the spread of estimates matches the mean reported
        # asymptotic sd within 15%
        estimates, sds = [], []
        for rep in range(120):
            seed = np.random.SeedSequence(entropy=62, spawn_key=(rep,))
            y = sample_ar1(params_for("ar1", 0.5), 200, 50, seed)
            record = fit(y, EstimatorKind.HYV_UNIVARIATE, "ar1")
            estimates.append(record.estimate)
            sds.append(record.sd)
        scatter = np.std(estimates, ddof=1)
        predicted = np.mean(sds)
        assert abs(scatter - predicted) / predicted < 0.15


class TestUnbiasedEstimatingEquations:
    """Monte Carlo mean of each score gradient at theta0 within 5 MC SEs."""

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("theta0", [0.0, 0.5, -0.5])
    def test_per_series_kinds(self, model, theta0):
        nu = 3000
        sampler = sample_ar1 if model == "ar1" else sample_ma1
        y = sampler(params_for(model, theta0), nu, 20, seed=63)
        for kind in (EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML,
                     EstimatorKind.HYV_UNIVARIATE):
            g, _ = per_series_moments(y, kind, model, theta0)
            se = np.std(g, ddof=1) / np.sqrt(nu)
            assert abs(np.mean(g)) < 5 * se, (model, kind, theta0)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("theta0", [0.0, 0.5, -0.5])
    def test_wishart_kind(self, model, theta0):
        from minscore import hw_grad_samples

        grads = hw_grad_samples(model, theta0, nu=50, t_len=10, n_draws=1000, seed=64)
        se = np.std(grads, ddof=1) / np.sqrt(len(grads))
        assert abs(np.mean(grads)) < 5 * se
