"""Godambe estimation, its Monte Carlo references, relative efficiency and fit."""

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    DegenerateDataError,
    EstimatorKind,
    are,
    fit,
    godambe_analytic,
    godambe_empirical,
    hw_grad_samples,
    k_analytic_ar1,
    params_for,
    sample_ar1,
    sample_ma1,
    sample_series,
    score_per_series,
    wishart_sensitivity,
)
from minscore.scores import min_series_length, series_objective


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

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_accepts_the_reduced_objective(self, model):
        y = sample_series(model, 0.3, 40, 12, seed=44)
        objective = series_objective(y, "hyv", model)
        assert godambe_empirical(objective, "hyv", model, 0.3) == \
            godambe_empirical(y, "hyv", model, 0.3)
        with pytest.raises(ValueError, match="objective is for"):
            godambe_empirical(objective, "full", model, 0.3)

    def test_invariant_g_formula(self):
        y = sample_ma1(params_for("ma1", 0.3), 500, 20, seed=44)
        comps = godambe_empirical(y, EstimatorKind.PAIRWISE_ML, "ma1", 0.3)
        npt.assert_allclose(comps.g_hat, comps.k_hat**2 / comps.j_hat, rtol=1e-12)
        assert comps.g_hat > 0


class TestGodambeMonteCarlo:
    """Per-series components from fresh draws at theta go through
    godambe_empirical; Wishart ones from hw_grad_samples and the sensitivity."""

    def test_agrees_with_empirical(self):
        # within 3 combined MC standard errors, component by component
        theta0 = 0.5
        nu = 3000
        y = sample_ar1(params_for("ar1", theta0), nu, 30, seed=45)
        emp = godambe_empirical(y, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        draws = sample_ar1(params_for("ar1", theta0), nu, 30, seed=46)
        mc = godambe_empirical(draws, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        g_emp, k_emp = per_series_moments(y, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        g_mc, k_mc = per_series_moments(draws, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        se_j = np.sqrt(np.var(g_emp**2, ddof=1) / nu + np.var(g_mc**2, ddof=1) / nu)
        se_k = np.sqrt(np.var(k_emp, ddof=1) / nu + np.var(k_mc, ddof=1) / nu)
        assert abs(emp.j_hat - mc.j_hat) < 3 * se_j
        assert abs(emp.k_hat - mc.k_hat) < 3 * se_k

    def test_wishart_k_is_analytic(self):
        k_hat = wishart_sensitivity("ar1", 0.5, 50)
        npt.assert_allclose(k_hat, k_analytic_ar1(0.5, 50), rtol=1e-12)
        assert abs(k_hat - 36.5) < 0.5

    def test_wishart_sd_normalization(self):
        # sd via 1/sqrt(nu*g) equals sqrt(Var of the pooled gradient)/K
        nu, t_len = 200, 50
        comps = godambe_analytic("ar1", 0.0, t_len=t_len, nu=nu)
        j_total = comps.j_hat / nu
        npt.assert_allclose(comps.sd(nu), np.sqrt(j_total) / comps.k_hat, rtol=1e-12)
        # Table value 0.0117 at phi=0 with generous MC allowance (B=500)
        grads = hw_grad_samples("ar1", 0.0, nu, t_len, 500, seed=48)
        mc_sd = np.sqrt(np.mean(grads**2)) / wishart_sensitivity("ar1", 0.0, t_len)
        assert abs(mc_sd - 0.0117) < 0.0012

    def test_law_of_large_numbers(self):
        def j_hat(n_draws, seed):
            grads = hw_grad_samples("ar1", 0.3, 40, 10, n_draws, seed)
            return np.mean(grads**2)

        small, big, huge = j_hat(50, 49), j_hat(5000, 49), j_hat(20000, 50)
        assert abs(big - huge) < abs(small - huge)


class TestFisherInformation:
    """Fisher information is the Godambe information of the log-score
    (J = K = I), here estimated from draws at theta0."""

    def test_ar1_at_zero(self):
        # I = T - 1 = 49 per series; sd at nu=200 is 1/sqrt(200*49) = 0.0101
        y = sample_series("ar1", 0.0, 4000, 50, seed=51)
        info = godambe_empirical(y, EstimatorKind.FULL_ML, "ar1", 0.0).g_hat
        assert abs(1.0 / np.sqrt(200 * info) - 0.0101) < 0.0005
        assert abs(info - 49.0) < 3.0

    def test_ma1_at_zero(self):
        y = sample_series("ma1", 0.0, 4000, 50, seed=52)
        info = godambe_empirical(y, EstimatorKind.FULL_ML, "ma1", 0.0).g_hat
        assert abs(1.0 / np.sqrt(200 * info) - 0.0101) < 0.0005


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
        # the Godambe sd from 4000 fresh draws at the estimate agrees
        draws = sample_series("ar1", record.estimate, 4000, 30, seed=59)
        mc = godambe_empirical(draws, EstimatorKind.FULL_ML, "ar1", record.estimate)
        assert abs(are(record.sd, mc.sd(400)) - 1.0) < 0.05

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
        assert record.sd == comps.sd(60)
        # the Monte Carlo reference at many draws agrees to a few percent
        grads = hw_grad_samples("ma1", record.estimate, 60, 12, 8000, seed=66)
        mc_sd = np.sqrt(np.mean(grads**2)) / wishart_sensitivity("ma1", record.estimate, 12)
        assert abs(mc_sd / record.sd - 1.0) < 0.05

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", ["full", "pairwise", "hyv"])
    def test_per_series_sd_is_empirical(self, model, kind):
        y = sample_series(model, 0.4, 60, 12, seed=70)
        record = fit(y, kind, model)
        assert record.sd == godambe_empirical(y, kind, model, record.estimate).sd(60)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", ["full", "pairwise", "hyv"])
    def test_each_series_reduced_once(self, monkeypatch, model, kind):
        import minscore.inference as inference

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return series_objective(*args, **kwargs)

        monkeypatch.setattr(inference, "series_objective", counted)
        record = fit(sample_series(model, 0.4, 60, 12, seed=70), kind, model)
        assert record.sd is not None and len(calls) == 1

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_single_observation_series_rejected(self, model, kind):
        # at T = 1 only theta**2 is identified; the Wishart estimate would
        # otherwise be returned without error
        y = sample_series(model, 0.3, 20, 1, seed=69)
        with pytest.raises(ValueError, match=f">= {min_series_length(kind, model)}"):
            fit(y, kind, model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_non_finite_data_rejected(self, kind, model, bad):
        # one bad value once gave a NaN pairwise estimate, a MinimizationError
        # for full and hyv, and a linear-algebra error for the Wishart score
        y = sample_series(model, 0.3, 30, 10, seed=71)
        y[4, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(y, kind, model)

    def test_wishart_sd_needs_four_extra_series(self):
        # the point estimate needs nu >= T + 2, its sd nu >= T + 4
        y = sample_ar1(params_for("ar1", 0.2), 13, 10, seed=67)
        assert not fit(y, EstimatorKind.HYV_WISHART, "ar1", compute_sd=False).boundary_flag
        with pytest.raises(ValueError, match=r"nu >= T \+ 4"):
            fit(y, EstimatorKind.HYV_WISHART, "ar1")

    @pytest.mark.parametrize("kind,nu,compute_sd,bound", [
        ("full", 1, True, "nu >= 2"),
        ("hyv-wishart", 11, False, r"nu >= T \+ 2"),
        ("hyv-wishart", 13, True, r"nu >= T \+ 4"),
    ])
    def test_series_count_checked_before_minimizing(self, monkeypatch, kind, nu,
                                                    compute_sd, bound):
        import minscore.inference as inference

        def never(*args, **kwargs):
            raise AssertionError("minimized before the bounds were checked")

        monkeypatch.setattr(inference, "minimize_scalar", never)
        monkeypatch.setattr(inference, "hw_estimate", never)
        y = sample_ar1(params_for("ar1", 0.2), nu, 10, seed=68)
        with pytest.raises(ValueError, match=bound):
            fit(y, kind, "ar1", compute_sd=compute_sd)

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
        grads = hw_grad_samples(model, theta0, nu=50, t_len=10, n_draws=1000, seed=64)
        se = np.std(grads, ddof=1) / np.sqrt(len(grads))
        assert abs(np.mean(grads)) < 5 * se
