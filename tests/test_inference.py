"""Godambe estimation, its Monte Carlo references, relative efficiency and fit."""

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    ConfigError,
    DegenerateDataError,
    EstimatorKind,
    ExperimentConfig,
    SeriesReduction,
    are,
    check_sample_size,
    fit,
    fit_lanes,
    godambe_empirical,
    hw_grad_samples,
    minimize_lanes,
    objective_lanes,
    params_for,
    sample_ar1,
    sample_ma1,
    sample_series,
    sample_size_error,
    score_per_series,
    sum_of_squares,
    wishart_components,
    wishart_context,
)
from minscore.inference import SEARCH_BOUNDS, retained_floats
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
        from minscore import minimize_lanes, objective_lanes

        rng = np.random.default_rng(42)
        y = np.tile(rng.standard_normal(20), (3, 1))
        # at the shared per-series optimum every per-series gradient vanishes
        objective = series_objective(y, EstimatorKind.PAIRWISE_ML, "ar1")
        [theta_hat] = minimize_lanes(objective_lanes([objective]), -0.999, 0.999).theta
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
        # AR(1): K = (T - 1 + 2 phi^2 (T - 2)) / 2
        k_hat = wishart_components("ar1", 0.5, 200, 50)[1]
        npt.assert_allclose(k_hat, (49 + 2 * 0.25 * 48) / 2, rtol=1e-12)
        assert abs(k_hat - 36.5) < 0.5

    def test_wishart_sd_normalization(self):
        # the fitted sd, 1/sqrt(nu*g) with J scaled by nu, equals
        # sqrt(Var of the pooled gradient)/K
        nu, t_len = 200, 50
        record = fit(sample_ar1(params_for("ar1", 0.0), nu, t_len, seed=47),
                     EstimatorKind.HYV_WISHART, "ar1")
        j_total, k_total = wishart_components("ar1", record.estimate, nu, t_len)
        npt.assert_allclose(record.sd, np.sqrt(j_total) / k_total, rtol=1e-12)
        # Table value 0.0117 at phi=0 with generous MC allowance (B=500)
        grads = hw_grad_samples("ar1", 0.0, nu, t_len, 500, seed=48)
        mc_sd = np.sqrt(np.mean(grads**2)) / wishart_components("ar1", 0.0, nu, t_len)[1]
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
        j_total, k_total = wishart_components("ma1", record.estimate, 60, 12)
        npt.assert_allclose(record.sd, np.sqrt(j_total) / k_total, rtol=1e-12)
        # the Monte Carlo reference at many draws agrees to a few percent
        grads = hw_grad_samples("ma1", record.estimate, 60, 12, 8000, seed=66)
        mc_sd = np.sqrt(np.mean(grads**2)) / k_total
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

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_zero_series_rejected(self, model, kind):
        # with no series, full, MA(1) pairwise and hyv once returned the
        # first grid seed as the estimate, without a boundary flag
        assert sample_size_error(kind, model, 0, 50, compute_sd=False) == (
            "every estimate needs nu >= 1 series; got nu=0")
        with pytest.raises(ValueError, match="nu >= 1"):
            fit(np.zeros((0, 50)), kind, model, compute_sd=False)

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

        monkeypatch.setattr(inference, "minimize_lanes", never)
        y = sample_ar1(params_for("ar1", 0.2), nu, 10, seed=68)
        with pytest.raises(ValueError, match=bound):
            fit(y, kind, "ar1", compute_sd=compute_sd)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_each_fit_evaluates_its_grid_in_one_call(self, monkeypatch, model):
        # the jets are taken at the 64 grid seeds as one array, then at the
        # one lane's Newton iterates; a return to one call per seed would
        # show up here
        import dataclasses

        import minscore.inference as inference

        minimizations = []

        def recording(minimize):
            def wrapper(lanes, *args, **kwargs):
                shapes = []
                minimizations.append(shapes)
                terms = lanes.terms

                def traced(x, order):
                    shapes.append(np.shape(x))
                    return terms(x, order)

                return minimize(dataclasses.replace(lanes, terms=traced), *args, **kwargs)
            return wrapper

        monkeypatch.setattr(inference, "minimize_lanes", recording(inference.minimize_lanes))
        y = sample_series(model, 0.4, 30, 8, seed=72)
        for kind in EstimatorKind:
            minimizations.clear()
            fit(y, kind, model)
            if (model, kind) == ("ar1", EstimatorKind.PAIRWISE_ML):
                assert minimizations == []  # closed form
                continue
            [shapes] = minimizations
            assert shapes[0] == (64,), kind
            assert len(shapes) > 1 and set(shapes[1:]) == {(1,)}, kind

    @pytest.mark.parametrize("t_len", [3, 50, 201])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_shared_reduction_fits_are_bit_identical(self, model, t_len):
        # what a study does (one reduction, every kind in turn) against one
        # fit per kind from the raw series
        y = sample_series(model, 0.5, t_len + 9, t_len, seed=t_len)
        reduction = SeriesReduction(y)
        for kind in EstimatorKind:
            shared, alone = fit(reduction, kind, model), fit(y, kind, model)
            assert shared.sd is not None, kind
            assert (shared.estimate, shared.sd) == (alone.estimate, alone.sd), kind

    @pytest.mark.parametrize("t_len", [3, 50])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_wishart_fit_is_the_wishart_estimate(self, model, t_len):
        # the one minimize path of fit gives the lone minimum of the Wishart
        # score to the bit
        y = sample_series(model, 0.5, t_len + 9, t_len, seed=t_len)
        ctx = wishart_context(sum_of_squares(y), nu=t_len + 9, model=model)
        estimate = float(minimize_lanes(objective_lanes([ctx]), *SEARCH_BOUNDS).theta[0])
        assert fit(y, EstimatorKind.HYV_WISHART, model).estimate == estimate
        assert fit(SeriesReduction(y), EstimatorKind.HYV_WISHART, model).estimate == estimate

    @pytest.mark.parametrize("t_len", [3, 50, 201])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_lanes_are_bit_identical_in_any_block(self, model, kind, t_len):
        # a study fits blocks of replicates as lanes; each replicate's record
        # must not depend on the block: alone, in blocks of 2, 5 and 12, and
        # in reversed order
        reductions = [SeriesReduction(sample_series(model, theta, t_len + 9, t_len, seed))
                      for seed, theta in enumerate(np.linspace(-0.95, 0.95, 12))]
        alone = [fit_lanes([r], kind, model)[0] for r in reductions]
        assert all(not isinstance(r, Exception) for r in alone), alone
        for size in (2, 5, 12):
            blocks = [fit_lanes(reductions[i:i + size], kind, model)
                      for i in range(0, len(reductions), size)]
            together = [record for block in blocks for record in block]
            assert [(r.estimate, r.sd) for r in together] == [(r.estimate, r.sd) for r in alone]
        backwards = fit_lanes(reductions[::-1], kind, model)[::-1]
        assert [(r.estimate, r.sd) for r in backwards] == [(r.estimate, r.sd) for r in alone]

    def test_one_lane_fails_alone(self):
        # a failing dataset gives its exception; the others keep their records
        good = [SeriesReduction(sample_series("ma1", 0.3, 30, 10, seed)) for seed in (1, 2)]
        singular = SeriesReduction(np.ones((30, 10)))
        records = fit_lanes([good[0], singular, good[1]], "hyv-wishart", "ma1")
        assert isinstance(records[1], ValueError) and "singular" in str(records[1])
        assert [records[0], records[2]] == [fit(r, "hyv-wishart", "ma1") for r in good]
        with pytest.raises(ValueError, match="one shape"):
            fit_lanes([good[0], SeriesReduction(np.ones((30, 9)))], "full", "ma1")

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_degenerate_wishart_lane_fails_alone(self, monkeypatch, model):
        # the Wishart sd takes the one degeneracy test of every kind: a lane
        # whose J is zero gets DegenerateDataError, the others their records
        import minscore.inference as inference

        reductions = [SeriesReduction(sample_series(model, 0.3, 30, 10, seed))
                      for seed in (1, 2, 3)]
        before = fit_lanes(reductions, "hyv-wishart", model)
        real = inference.wishart_components

        def zero_j_at_second(m, lam, nu, t_len):
            j, k = real(m, lam, nu, t_len)
            return (0.0, k) if lam == before[1].estimate else (j, k)

        monkeypatch.setattr(inference, "wishart_components", zero_j_at_second)
        after = fit_lanes(reductions, "hyv-wishart", model)
        assert isinstance(after[1], DegenerateDataError)
        assert [after[0], after[2]] == [before[0], before[2]]

    def test_reduction_keeps_statistics_only(self):
        # a study drops the series once every family is computed; the fits
        # then read the kept statistics.  A failing family keeps the series,
        # and its kind raises the failure
        y = sample_series("ar1", 0.3, 14, 10, seed=74)
        reduction = SeriesReduction(y)
        reduction.keep_statistics(list(EstimatorKind), "ar1")
        assert reduction.series is None
        for kind in EstimatorKind:
            assert fit(reduction, kind, "ar1", compute_sd=False) == fit(
                y, kind, "ar1", compute_sd=False)
        singular = SeriesReduction(np.ones((14, 10)))
        singular.keep_statistics(list(EstimatorKind), "ar1")
        assert singular.series is not None
        with pytest.raises(ValueError, match="singular"):
            fit(singular, EstimatorKind.HYV_WISHART, "ar1")

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_retained_floats_are_the_kept_statistics(self, model):
        # the block size of a study rests on this count: every float a
        # reduction keeps after dropping its series, each buffer once
        nu, t_len = 16, 9
        y = sample_series(model, 0.3, nu, t_len, seed=75)
        for mask in range(1, 16):
            kinds = [k for i, k in enumerate(EstimatorKind) if mask >> i & 1]
            reduction = SeriesReduction(y)
            reduction.keep_statistics(kinds, model)
            assert reduction.series is None
            buffers, floats = {}, 0
            for kept in reduction._families.values():
                if isinstance(kept, float):  # the AR(1) pairwise closed form
                    floats += 1
                    continue
                for array in (kept.stats, kept.pooled):
                    while array.base is not None:
                        array = array.base
                    buffers[id(array)] = array.size
            assert retained_floats(kinds, model, nu, t_len) == floats + sum(buffers.values())

    def test_reduction_checks_values_once(self):
        y = sample_series("ma1", 0.3, 30, 10, seed=73)
        y[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SeriesReduction(y)

    @pytest.mark.parametrize("kind,model,nu,t_len", [
        ("hyv", "ar1", 20, 2),
        ("full", "ma1", 20, 1),
        ("full", "ar1", 1, 5),
        ("hyv-wishart", "ma1", 9, 6),
    ])
    def test_study_config_and_data_share_the_bounds(self, kind, model, nu, t_len):
        # one shape-only helper words the bound in t for a study, T for data
        estimators = (EstimatorKind(kind),)
        with pytest.raises(ConfigError) as study:
            ExperimentConfig(model=model, param_grid=(0.3,), nu=nu, t_len=t_len,
                             estimators=estimators).validate()
        assert str(study.value) == sample_size_error(kind, model, nu, t_len, t_name="t")
        with pytest.raises(ValueError) as data:
            check_sample_size(kind, model, np.ones((nu, t_len)))
        assert str(data.value) == sample_size_error(kind, model, nu, t_len)

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
