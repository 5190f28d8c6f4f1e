"""Godambe estimation, its Monte Carlo references, relative efficiency and fit."""

import dataclasses
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import optimize as sp_optimize
from scipy import stats

from minscore import (
    ConfigError,
    DegenerateDataError,
    EstimatorKind,
    ExperimentConfig,
    MinimizationError,
    SeriesReduction,
    are,
    fit,
    fit_lanes,
    minimize_lanes,
    objective_lanes,
    sample_ar1,
    sample_ma1,
    sample_series,
    sample_size_error,
    sum_of_squares,
    wishart_components,
    wishart_context,
)
from minscore.inference import SEARCH_BOUNDS
from minscore.optimize import GRID_POINTS
from minscore.scores import _reducer, min_series_length, series_objective
from minscore.selfcheck import hw_grad_samples


def per_series_moments(y, kind, model, theta):
    """Exact per-series gradients and second derivatives of the objective at
    theta: the samples behind the empirical Godambe components."""
    return series_objective(y, kind, model).derivatives(theta)


def godambe(y, kind, model, theta):
    """Empirical variability J (mean squared gradient) and sensitivity K (mean
    second derivative) per series at theta."""
    g, h = per_series_moments(y, kind, model, theta)
    return np.mean(g * g), np.mean(h)


def godambe_sd(y, kind, model, theta, nu):
    """The asymptotic sd 1 / sqrt(nu G), G = K^2 / J, that fit reports."""
    j_hat, k_hat = godambe(y, kind, model, theta)
    return 1.0 / np.sqrt(nu * (k_hat * k_hat / j_hat))


class TestGodambeEmpirical:
    def test_information_identity_for_full_ml(self):
        # J ~ K for the log-score at the truth (10% relative at nu=2000)
        y = sample_ar1(0.5, 2000, 50, seed=40)
        j_hat, k_hat = godambe(y, EstimatorKind.FULL_ML, "ar1", 0.5)
        assert abs(j_hat - k_hat) / k_hat < 0.10

    def test_hyv_univariate_sd_matches_reference(self):
        # G estimated on nu=2000 series; the sd quoted for the reference study
        # size (nu=200) must come out at 0.0101 +/- 0.0005
        y = sample_ar1(0.0, 2000, 50, seed=41)
        sd = godambe_sd(y, EstimatorKind.HYV_UNIVARIATE, "ar1", 0.0, 200)
        assert abs(sd - 0.0101) < 0.0005

    def test_repeated_rows_are_degenerate(self):
        rng = np.random.default_rng(42)
        # at the shared per-series optimum every per-series gradient vanishes
        for y in (np.tile(rng.standard_normal(20), (3, 1)), np.ones((3, 3))):
            for model in ("ar1", "ma1"):
                with pytest.raises(DegenerateDataError):
                    fit(y, EstimatorKind.PAIRWISE_ML, model)

    def test_invariant_g_formula(self):
        # the fitted sd is 1 / sqrt(nu G) with G = K^2 / J > 0 at the estimate
        y = sample_ma1(0.3, 500, 20, seed=44)
        record = fit(y, EstimatorKind.PAIRWISE_ML, "ma1")
        j_hat, k_hat = godambe(y, EstimatorKind.PAIRWISE_ML, "ma1", record.estimate)
        npt.assert_allclose(500 * record.sd**2, j_hat / k_hat**2, rtol=1e-12)
        assert j_hat > 0 and k_hat > 0


class TestGodambeMonteCarlo:
    """Per-series components from the observed series and from fresh draws at
    theta; Wishart ones from hw_grad_samples and the sensitivity."""

    def test_agrees_with_empirical(self):
        # within 3 combined MC standard errors, component by component
        theta0 = 0.5
        nu = 3000
        y = sample_ar1(theta0, nu, 30, seed=45)
        draws = sample_ar1(theta0, nu, 30, seed=46)
        g_emp, k_emp = per_series_moments(y, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        g_mc, k_mc = per_series_moments(draws, EstimatorKind.HYV_UNIVARIATE, "ar1", theta0)
        se_j = np.sqrt(np.var(g_emp**2, ddof=1) / nu + np.var(g_mc**2, ddof=1) / nu)
        se_k = np.sqrt(np.var(k_emp, ddof=1) / nu + np.var(k_mc, ddof=1) / nu)
        assert abs(np.mean(g_emp**2) - np.mean(g_mc**2)) < 3 * se_j
        assert abs(np.mean(k_emp) - np.mean(k_mc)) < 3 * se_k

    def test_wishart_k_is_analytic(self):
        # AR(1): K = (T - 1 + 2 phi^2 (T - 2)) / 2
        k_hat = wishart_components("ar1", 0.5, 200, 50)[1]
        npt.assert_allclose(k_hat, (49 + 2 * 0.25 * 48) / 2, rtol=1e-12)
        assert abs(k_hat - 36.5) < 0.5

    def test_wishart_sd_normalization(self):
        # the fitted sd, 1/sqrt(nu*g) with J scaled by nu, equals
        # sqrt(Var of the pooled gradient)/K
        nu, t_len = 200, 50
        record = fit(sample_ar1(0.0, nu, t_len, seed=47),
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
        j_hat, k_hat = godambe(y, EstimatorKind.FULL_ML, "ar1", 0.0)
        info = k_hat * k_hat / j_hat
        assert abs(1.0 / np.sqrt(200 * info) - 0.0101) < 0.0005
        assert abs(info - 49.0) < 3.0

    def test_ma1_at_zero(self):
        y = sample_series("ma1", 0.0, 4000, 50, seed=52)
        assert abs(godambe_sd(y, EstimatorKind.FULL_ML, "ma1", 0.0, 200) - 0.0101) < 0.0005


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
            y = sample_ar1(0.5, 200, 50, seed)
            for kind in EstimatorKind:
                sums[kind] += fit(y, kind, "ar1").estimate
        for kind, total in sums.items():
            assert abs(total / reps - 0.5) < 0.01, kind

    def test_ma_hyv_sd_at_09(self):
        y = sample_ma1(0.9, 200, 50, seed=56)
        record = fit(y, EstimatorKind.HYV_UNIVARIATE, "ma1")
        assert abs(record.sd - 0.0064) < 0.0008

    def test_full_vs_pairwise_at_independence(self):
        y = sample_ar1(0.0, 200, 50, seed=57)
        full = fit(y, EstimatorKind.FULL_ML, "ar1")
        pair = fit(y, EstimatorKind.PAIRWISE_ML, "ar1")
        assert abs(full.estimate - pair.estimate) < 1e-3

    def test_are_of_full_ml_against_itself(self):
        y = sample_ar1(0.4, 400, 30, seed=58)
        record = fit(y, EstimatorKind.FULL_ML, "ar1")
        self_rel = are(record.sd, record.sd)
        assert self_rel == 1.0
        # the Godambe sd from 4000 fresh draws at the estimate agrees
        draws = sample_series("ar1", record.estimate, 4000, 30, seed=59)
        mc_sd = godambe_sd(draws, EstimatorKind.FULL_ML, "ar1", record.estimate, 400)
        assert abs(are(record.sd, mc_sd) - 1.0) < 0.05

    def test_boundary_flag_at_search_bound(self):
        # series of +-100 pull the sigma2 = 1 pairwise argmin past the search
        # interval: the fit ends on its bound, flagged and without an sd
        for sign in (1.0, -1.0):
            y = np.tile([100.0, sign * 100.0, 100.0], (3, 1))
            record = fit(y, EstimatorKind.PAIRWISE_ML, "ar1")
            assert record.boundary_flag
            assert abs(record.estimate - sign * SEARCH_BOUNDS[1]) < 4e-6
            assert record.sd is None

    @pytest.mark.parametrize("phi", [-0.9, -0.5, 0.5, 0.9])
    def test_ar1_pairwise_is_the_unit_variance_argmin(self, phi):
        # the argmin of the sigma2 = 1 pairwise likelihood, every consecutive
        # pair N(0, [[1, phi], [phi, 1]] / (1 - phi^2)), by SciPy's bounded
        # search; the sigma2-profiled closed form lies about 3e-3 away
        y = sample_ar1(phi, 200, 50, seed=80)
        pairs = np.stack([y[:, :-1], y[:, 1:]], axis=-1).reshape(-1, 2)

        def negative(rho):
            cov = np.array([[1.0, rho], [rho, 1.0]]) / (1.0 - rho * rho)
            return -float(np.sum(stats.multivariate_normal(cov=cov).logpdf(pairs)))

        argmin = sp_optimize.minimize_scalar(negative, bounds=SEARCH_BOUNDS, method="bounded",
                                             options={"xatol": 1e-10}).x
        estimate = fit(y, EstimatorKind.PAIRWISE_ML, "ar1").estimate
        assert abs(estimate - argmin) <= 1e-6

    def test_wishart_requires_enough_series(self):
        y = sample_ar1(0.2, 10, 30, seed=61)
        with pytest.raises(ValueError):
            fit(y, EstimatorKind.HYV_WISHART, "ar1")

    def test_wishart_sd_is_exact(self):
        y = sample_ma1(0.3, 60, 12, seed=65)
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
        # with no more rows than statistics a reduction keeps the rows, and
        # the sd is that of the per-row derivatives to the bit; with more, it
        # keeps their second moments, which move the sd by at most 7.5e-14
        # relative (both acceptance studies, the benchmark shapes and
        # |theta| = 0.99); 1e-12 leaves a margin of 13
        y = sample_series(model, 0.4, 3, 12, seed=70)
        record = fit(y, kind, model)
        assert record.sd == godambe_sd(y, kind, model, record.estimate, 3)
        y = sample_series(model, 0.4, 60, 12, seed=70)
        record = fit(y, kind, model)
        assert record.sd == pytest.approx(godambe_sd(y, kind, model, record.estimate, 60),
                                          rel=1e-12, abs=0)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", ["full", "pairwise", "hyv", "hyv-wishart"])
    def test_each_series_reduced_once(self, replace_reducer, model, kind):
        # the kind's reducer runs once, on the series, and no other route
        # reduces them again
        real, shapes = _reducer(kind, model), []

        def counted(y):
            shapes.append(y.shape)
            return real(y)

        replace_reducer(real, counted)
        record = fit(sample_series(model, 0.4, 60, 12, seed=70), kind, model)
        assert record.sd is not None and shapes == [(60, 12)]

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_single_observation_series_rejected(self, model, kind):
        # at T = 1 only theta**2 is identified; the Wishart estimate would
        # otherwise be returned without error
        y = sample_series(model, 0.3, 20, 1, seed=69)
        with pytest.raises(ValueError, match=f">= {min_series_length(kind, model)}"):
            fit(y, kind, model)

    @pytest.mark.parametrize("nu,t_len,message", [
        (20.5, 5, "nu must be an integer, got 20.5"),
        (20, 5.5, "series length must be an integer, got 5.5"),
        (20.0, 5, "nu must be an integer, got 20.0"),
    ])
    def test_sample_size_error_rejects_non_integral_sizes(self, nu, t_len, message):
        # sample_size_error("full", "ar1", 20.5, 5.5) once returned None
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_size_error("full", "ar1", nu, t_len)
        assert sample_size_error("full", "ar1", np.int64(20), np.int32(5)) is None

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_zero_series_rejected(self, model, kind):
        # with no series, full, MA(1) pairwise and hyv once returned the
        # first grid seed as the estimate, without a boundary flag
        assert sample_size_error(kind, model, 0, 50) == (
            "every sd needs nu >= 2 series; got nu=0")
        with pytest.raises(ValueError, match="nu >= 2"):
            fit(np.zeros((0, 50)), kind, model)

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
        # the Wishart score takes nu >= T + 2 and its estimate is reachable
        # by the public minimize route; fit, which gives the sd, needs T + 4
        y = sample_ar1(0.2, 13, 10, seed=67)
        ctx = wishart_context(sum_of_squares(y), nu=13, model="ar1")
        assert np.isfinite(minimize_lanes(objective_lanes([ctx]), *SEARCH_BOUNDS)[0])
        with pytest.raises(ValueError, match=r"nu >= T \+ 4"):
            fit(y, EstimatorKind.HYV_WISHART, "ar1")

    @pytest.mark.parametrize("kind,nu,bound", [
        ("full", 1, "nu >= 2"),
        ("hyv-wishart", 13, r"nu >= T \+ 4"),
    ])
    def test_series_count_checked_before_minimizing(self, monkeypatch, kind, nu, bound):
        import minscore.inference as inference

        def never(*args, **kwargs):
            raise AssertionError("minimized before the bounds were checked")

        monkeypatch.setattr(inference, "minimize_lanes", never)
        y = sample_ar1(0.2, nu, 10, seed=68)
        with pytest.raises(ValueError, match=bound):
            fit(y, kind, "ar1")

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
            [shapes] = minimizations
            assert shapes[0] == (64,), kind
            assert len(shapes) > 1 and set(shapes[1:]) == {(1,)}, kind

    @pytest.mark.parametrize("t_len", [3, 50, 201])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_shared_reduction_fits_are_bit_identical(self, model, t_len):
        # what a study does (one reduction, every kind in turn) against one
        # fit per kind from the raw series
        y = sample_series(model, 0.5, t_len + 9, t_len, seed=t_len)
        reduction = SeriesReduction(y, EstimatorKind, model)
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
        estimate = float(minimize_lanes(objective_lanes([ctx]), *SEARCH_BOUNDS)[0])
        assert fit(y, EstimatorKind.HYV_WISHART, model).estimate == estimate
        reduction = SeriesReduction(y, [EstimatorKind.HYV_WISHART], model)
        assert fit(reduction, EstimatorKind.HYV_WISHART, model).estimate == estimate

    @pytest.mark.parametrize("t_len", [3, 50, 201])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_lanes_are_bit_identical_in_any_block(self, model, kind, t_len):
        # a study fits blocks of replicates as lanes; each replicate's record
        # must not depend on the block: alone, in blocks of 2, 5 and 12, and
        # in reversed order
        reductions = [SeriesReduction(sample_series(model, theta, t_len + 9, t_len, seed),
                                      [kind], model)
                      for seed, theta in enumerate(np.linspace(-0.95, 0.95, 12))]
        alone = [fit_lanes([r], kind)[0] for r in reductions]
        assert all(not isinstance(r, Exception) for r in alone), alone
        for size in (2, 5, 12):
            blocks = [fit_lanes(reductions[i:i + size], kind)
                      for i in range(0, len(reductions), size)]
            together = [record for block in blocks for record in block]
            assert [(r.estimate, r.sd) for r in together] == [(r.estimate, r.sd) for r in alone]
        backwards = fit_lanes(reductions[::-1], kind)[::-1]
        assert [(r.estimate, r.sd) for r in backwards] == [(r.estimate, r.sd) for r in alone]

    def test_one_lane_fails_alone(self, monkeypatch):
        # a dataset whose objective is non-finite at every grid seed gives its
        # MinimizationError; the others keep their records
        import minscore.inference as inference

        real = inference.objective_lanes

        def nan_second(objectives):
            lanes = real(objectives)
            if len(objectives) == 3:
                lanes.pooled[1] = np.nan
            return lanes

        monkeypatch.setattr(inference, "objective_lanes", nan_second)
        for kind in EstimatorKind:
            reductions = [SeriesReduction(sample_series("ma1", 0.3, 30, 10, seed), [kind], "ma1")
                          for seed in (1, 2, 3)]
            records = fit_lanes(reductions, kind)
            assert isinstance(records[1], MinimizationError), kind
            assert [records[0], records[2]] == [fit(reductions[i], kind, "ma1") for i in (0, 2)]

    def test_lanes_need_one_shape_and_model(self):
        y = sample_series("ma1", 0.3, 30, 10, seed=1)
        reduction = SeriesReduction(y, ["full"], "ma1")
        with pytest.raises(ValueError, match="one shape"):
            fit_lanes([reduction, SeriesReduction(np.ones((30, 9)), ["full"], "ma1")], "full")
        with pytest.raises(ValueError, match="one kind, model and length"):
            fit_lanes([reduction, SeriesReduction(y, ["full"], "ar1")], "full")
        with pytest.raises(ValueError, match="is of ma1, not ar1"):
            fit(reduction, "full", "ar1")

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_degenerate_wishart_lane_fails_alone(self, monkeypatch, model):
        # the Wishart sd takes the one degeneracy test of every kind: a lane
        # whose J is zero gets DegenerateDataError, the others their records
        import minscore.inference as inference

        reductions = [SeriesReduction(sample_series(model, 0.3, 30, 10, seed), ["hyv-wishart"],
                                      model)
                      for seed in (1, 2, 3)]
        before = fit_lanes(reductions, "hyv-wishart")
        real = inference.wishart_components

        def zero_j_at_second(m, lam, nu, t_len):
            # every lane's J and K in one call, J zeroed at the second estimate
            j, k = real(m, lam, nu, t_len)
            return np.where(lam == before[1].estimate, 0.0, j), k

        monkeypatch.setattr(inference, "wishart_components", zero_j_at_second)
        after = fit_lanes(reductions, "hyv-wishart")
        assert isinstance(after[1], DegenerateDataError)
        assert [after[0], after[2]] == [before[0], before[2]]

    def test_reduction_keeps_statistics_only(self):
        # a reduction keeps the statistics of its kinds and no series; the
        # fits read them
        y = sample_series("ar1", 0.3, 14, 10, seed=74)
        reduction = SeriesReduction(y, EstimatorKind, "ar1")
        assert not hasattr(reduction, "series")
        for kind in EstimatorKind:
            assert fit(reduction, kind, "ar1") == fit(y, kind, "ar1")

    def test_reduction_fits_only_its_kinds(self):
        reduction = SeriesReduction(sample_series("ar1", 0.3, 14, 10, seed=74),
                                    ["full", "hyv"], "ar1")
        with pytest.raises(ValueError, match="built for full, hyv, not pairwise"):
            fit(reduction, EstimatorKind.PAIRWISE_ML, "ar1")

    def test_reduction_needs_a_kind(self):
        # no kinds once failed on the fit bound, as max() of an empty sequence
        y = sample_series("ar1", 0.3, 14, 10, seed=74)
        message = "a reduction needs at least one estimator kind; kinds is empty"
        with pytest.raises(ValueError, match=f"^{message}$"):
            SeriesReduction(y, [], "ar1")

    def test_no_lanes_fit_nothing(self):
        assert fit_lanes([], "hyv-wishart") == []

    def test_failing_family_fails_at_reduction(self):
        # a singular S fails when the reduction is built, not at the fit
        with pytest.raises(ValueError, match="singular"):
            SeriesReduction(np.ones((14, 10)), EstimatorKind, "ar1")

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_floats_are_the_kept_statistics(self, model):
        # the block size of a study rests on this count: every float a
        # reduction keeps, each buffer once; a family keeps its rows, or their
        # second moments where it has more rows than statistics (at 12 x 8,
        # AR(1) hyv has 12 of each)
        for nu, t_len in ((16, 9), (12, 8)):
            y = sample_series(model, 0.3, nu, t_len, seed=75)
            for mask in range(1, 16):
                kinds = [k for i, k in enumerate(EstimatorKind) if mask >> i & 1]
                reduction = SeriesReduction(y, kinds, model)
                buffers = {}
                for kept in reduction._objectives.values():
                    assert (kept.stats is None) == (kept.rows > kept.pooled.size)
                    for array in (kept.stats, kept.moments, kept.pooled):
                        if array is None:
                            continue
                        while array.base is not None:
                            array = array.base
                        buffers[id(array)] = array.size
                assert reduction.floats == sum(buffers.values())

    @pytest.mark.parametrize("model,nu,t_len,kinds,moments,floats", [
        # the benchmark's desk shapes keep the m x m second moments of every
        # family: MA(1) full 50 + 50^2, pairwise 3 + 3^2, and the Wishart
        # row of 50; AR(1) full 8 + 8^2, hyv 12 + 12^2 and the Wishart row of
        # the 8 full statistics
        ("ma1", 200, 50, list(EstimatorKind), {"full", "pairwise"}, 2550 + 12 + 50),
        ("ar1", 200, 50, list(EstimatorKind), {"full", "hyv"}, 72 + 156 + 8),
        # the long shape keeps the 100 x 200 rows of MA(1) full, 200 + 100 * 200
        ("ma1", 100, 200, ["full", "pairwise", "hyv"], {"pairwise"}, 20200 + 12),
    ])
    def test_benchmark_shapes_keep_the_fewer_floats(self, model, nu, t_len, kinds, moments,
                                                    floats):
        reduction = SeriesReduction(sample_series(model, 0.3, nu, t_len, seed=76), kinds, model)
        for kind in kinds:
            kept = reduction.objective(kind)
            # the first kind listed that reads the same statistics
            family = next(k for k in kinds if _reducer(k, model) is _reducer(kind, model))
            assert (kept.stats is None) == (EstimatorKind(family).value in moments), kind
        assert reduction.floats == floats

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 20, 5)])
    def test_more_than_two_axes_rejected(self, shape):
        # a 3-D array once reached the bounds check as three sizes, a TypeError
        message = f"expected a (T,) or (nu, T) array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(np.zeros(shape), "full", "ar1")
        with pytest.raises(ValueError, match="got shape"):
            SeriesReduction(np.zeros(shape), EstimatorKind, "ma1")

    def test_reduction_checks_values_once(self):
        y = sample_series("ma1", 0.3, 30, 10, seed=73)
        y[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SeriesReduction(y, EstimatorKind, "ma1")

    def test_fits_do_not_depend_on_the_memory_layout(self):
        # the same values in F order, as a strided view or with negative
        # strides once gave other last bits than in C order (an AR(1) full sd
        # by 4.7e-15, relative), as numpy sums each layout in another order
        for model in ("ar1", "ma1"):
            y = sample_series(model, 0.6, 200, 50, seed=5)
            wide = np.zeros((400, 100))
            wide[::2, ::2] = y
            layouts = {"F order": np.asfortranarray(y), "strided": wide[::2, ::2],
                       "negative strides": np.ascontiguousarray(y[::-1, ::-1])[::-1, ::-1]}
            for kind in EstimatorKind:
                record = fit(y, kind, model)
                for name, view in layouts.items():
                    assert np.array_equal(view, y) and not view.flags.c_contiguous
                    assert fit(view, kind, model) == record, (model, kind, name)
                    assert fit(SeriesReduction(view, [kind], model), kind, model) == record

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_series_rejected(self, dtype):
        # the imaginary parts were once dropped with a ComplexWarning
        y = sample_series("ar1", 0.3, 20, 10, seed=71).astype(dtype)
        for kind in EstimatorKind:
            with pytest.raises(ValueError, match=f"real, got dtype {np.dtype(dtype)}"):
                fit(y, kind, "ar1")
            with pytest.raises(ValueError, match=f"real, got dtype {np.dtype(dtype)}"):
                series_objective(y, kind, "ar1")

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
            fit(np.ones((nu, t_len)), kind, model)
        assert str(data.value) == sample_size_error(kind, model, nu, t_len)

    def test_godambe_sd_predicts_sampling_scatter(self):
        # across replicates the spread of estimates matches the mean reported
        # asymptotic sd within 15%
        estimates, sds = [], []
        for rep in range(120):
            seed = np.random.SeedSequence(entropy=62, spawn_key=(rep,))
            y = sample_ar1(0.5, 200, 50, seed)
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
        y = sampler(theta0, nu, 20, seed=63)
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


class TestMomentRoute:
    """J and K of a reduction that keeps second moments against mean g^2 and
    mean h of the per-row derivatives (series_objective), at the estimate and
    at the true theta.  The route sums c1' G c1, 2 k1 (pooled . c1) and
    rows k1^2, which cancel to J (at the estimate pooled . c1 = -rows k1), so
    its rounding is bounded by the size of the products it sums, each taken
    in absolute value: the largest error measured here is 6.7e-16 of that
    size, and 1e-14 leaves a margin of 15."""

    @pytest.mark.parametrize("t_len", [3, 5, 50, 201])
    @pytest.mark.parametrize("kind", ["full", "pairwise", "hyv"])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_moments_give_the_per_row_godambe_sums(self, model, kind, t_len):
        from minscore.inference import _moment_godambe

        m = _statistics_per_row(kind, model, t_len)
        rng = np.random.default_rng([t_len, m])
        for theta in (-0.999, -0.9, 0.0, 0.5, 0.99, 0.999):
            # both sides of the rule: the moments of up to m rows are built here
            for nu in (max(2, m // 2), m + 1, 4 * m + 10):
                y = sample_series(model, theta, nu, t_len, int(rng.integers(1 << 30)))
                kept = SeriesReduction(y, [kind], model).objective(kind)
                assert (kept.stats is None) == (nu > m)
                if kept.stats is not None:
                    kept = dataclasses.replace(kept, stats=None,
                                               moments=kept.stats.T @ kept.stats)
                for at in (fit(y, kind, model).estimate, theta):
                    coef, const = objective_lanes([kept]).terms(np.array([at]), 2)
                    [j_hat], [k_hat] = _moment_godambe([kept], kept.pooled[None],
                                                       np.array([float(nu)]), coef, const)
                    rows = series_objective(y, kind, model)
                    g, h = rows.derivatives(at)
                    # the sizes of the terms summed, each product taken in
                    # absolute value
                    (_, c1, c2), (_, k1, k2) = np.abs(coef[:, 0]), np.abs(const[:, 0])
                    size_g = np.abs(rows.stats) @ c1
                    size_j = np.mean(size_g ** 2) + 2 * k1 * np.mean(size_g) + k1 * k1
                    size_k = np.mean(np.abs(rows.stats) @ c2) + k2
                    assert abs(j_hat - np.mean(g * g)) <= 1e-14 * size_j, (nu, theta, at)
                    assert abs(k_hat - np.mean(h)) <= 1e-14 * size_k, (nu, theta, at)

    def test_reduction_without_rows_has_no_per_row_derivatives(self):
        y = sample_series("ma1", 0.3, 30, 10, seed=1)
        kept = SeriesReduction(y, ["full"], "ma1").objective("full")
        assert kept.stats is None and kept.moments.shape == (10, 10) and kept.rows == 30
        with pytest.raises(ValueError, match="only the second moments of its 30 rows"):
            kept.derivatives(0.3)
        assert kept.total(0.3) == series_objective(y, "full", "ma1").total(0.3)


class TestFitMemory:
    """What a fit holds per lane: the slope of the tracemalloc peak of
    fit_lanes between 40 and 160 AR(1) datasets (nu = 200, T = 50, so the
    reductions keep moments), in floats."""

    @pytest.mark.parametrize("kind", ["full", "hyv"])
    def test_ar1_jets_take_one_sign_half_per_lane(self, kind):
        # m = 2h statistics, h of each sign (h = 4 full, 6 hyv).  At a Newton
        # step a lane holds its 64 grid values and m pooled statistics, the 15
        # floats of the power jets of u, the 3 * h * 5 products of its own
        # half's contraction and their 3h sums, and 3m floats each of
        # coefficient jets and of their products with its statistics: 207
        # floats (full) and 271 (hyv) counted as held at once.  The moment
        # step holds less (m^2 moments, 3m jets and 3m sums and products:
        # 112 and 216).  Both halves contracted for every lane and one picked,
        # as the jets once were, held 280 and 382; measured now 163 and 234
        h = {"full": 4, "hyv": 6}[kind]
        m = 2 * h
        bound = GRID_POINTS + m + 15 + 3 * h * 5 + 3 * h + 2 * 3 * m
        reductions = [SeriesReduction(sample_ar1(0.5, 200, 50, seed), [kind], "ar1")
                      for seed in range(160)]
        fit_lanes(reductions[:4], kind)  # caches and lazy imports
        peaks = []
        for count in (40, 160):
            tracemalloc.start()
            try:
                fit_lanes(reductions[:count], kind)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_lane = (peaks[1] - peaks[0]) / 120 / 8
        assert per_lane <= bound, (per_lane, bound)


class TestReductionMemory:
    def test_ar1_reduction_peak(self):
        # the tracemalloc peak of reducing one AR(1) draw (nu = 200, T = 50)
        # for all four kinds, the draw allocated before tracing.  Besides the
        # draw, the reduction holds at most the two (nu, T - 2) buffers of the
        # hyv family, w = d_{t-1} + d_{t+1} and h (2 (T - 2) / T = 1.92 draws),
        # and numpy's iteration buffers of a dot product, at most 8192 floats
        # for each of its two operands (1.64 draws): 3.56 draws.  Each sign
        # half in its own buffers, as the statistics were once computed, held
        # 4.21 draws; measured now 3.04
        nu, t_len = 200, 50
        y = sample_ar1(0.5, nu, t_len, seed=3)
        SeriesReduction(y, EstimatorKind, "ar1")  # caches and lazy imports
        bound = 2 * nu * (t_len - 2) * 8 + 2 * 8192 * 8
        tracemalloc.start()
        try:
            SeriesReduction(y, EstimatorKind, "ar1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / y.nbytes, bound / y.nbytes)


def _statistics_per_row(kind, model, t_len):
    # m, the statistics per row of the kind's family: a reduction keeps the
    # rows up to m rows and their second moments beyond
    return {"hyv": 12}.get(kind, 8) if model == "ar1" else 3 if kind == "pairwise" else t_len


def _random_shapes(model, kind, side, count=4):
    # (nu, T, theta, seed) on one side of the rows/moments rule
    rng = np.random.default_rng([("ar1", "ma1").index(model), list(EstimatorKind).index(
        EstimatorKind(kind)), ("rows", "moments").index(side)])
    shapes = []
    while len(shapes) < count:
        t_len = int(rng.integers(3, 31))
        m = _statistics_per_row(kind, model, t_len)
        if kind == "hyv-wishart":
            nu = int(rng.integers(t_len + 4, t_len + 40))
        elif side == "rows":
            nu = int(rng.integers(2, m + 1))
        else:
            nu = int(rng.integers(m + 1, m + 60))
        shapes.append((nu, t_len, float(rng.uniform(-0.95, 0.95)), int(rng.integers(1 << 30))))
    return shapes


# the largest deviation measured over 60 random shapes per model and kind is
# 1.1e-13 (MA(1) hyv-wishart; 2.1e-14 or less for the AR(1) per-series kinds),
# so 1e-12 leaves a margin of 9
SYMMETRY_TOL = 1e-12


class TestSymmetries:
    """The stationary AR(1) and MA(1) laws are persymmetric, and Sigma(-theta)
    = D Sigma(theta) D with D = diag((-1)^t), so every estimator is unchanged by
    reversing time and changes sign under alternating signs, with the same sd
    and boundary flag."""

    @pytest.mark.parametrize("model,kind,side", [
        (model, kind, side) for model in ("ar1", "ma1") for kind in EstimatorKind
        for side in (("moments",) if kind is EstimatorKind.HYV_WISHART else ("rows", "moments"))
    ])
    def test_reversal_and_sign_alternation(self, model, kind, side):
        for nu, t_len, theta, seed in _random_shapes(model, kind, side):
            y = sample_series(model, theta, nu, t_len, seed)
            if kind is not EstimatorKind.HYV_WISHART:
                kept = SeriesReduction(y, [kind], model).objective(kind)
                assert (kept.stats is None) == (side == "moments")
            record = fit(y, kind, model)
            alternating = (-1.0) ** np.arange(t_len)
            for mirror, sign in ((y[:, ::-1], 1.0), (y * alternating, -1.0)):
                other = fit(mirror, kind, model)
                assert other.boundary_flag == record.boundary_flag
                assert abs(other.estimate - sign * record.estimate) <= SYMMETRY_TOL
                if record.sd is None:
                    assert other.sd is None
                else:
                    assert abs(other.sd / record.sd - 1.0) <= SYMMETRY_TOL
