"""The lane minimizer, its batched grid, and a hand derivative against the exact
objective gradient."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import optimize as sp_optimize

from minscore import (
    EstimatorKind,
    SeriesReduction,
    minimize_lanes,
    objective_lanes,
    sample_ar1,
    sample_series,
    series_objective,
    sum_of_squares,
    wishart_context,
)
from minscore.optimize import GRID_POINTS, MAX_STEPS, Lanes
from minscore.inference import SEARCH_BOUNDS


def scalar_lanes(*functions):
    """Lanes whose lane i is ``functions[i]``, a callable giving the value and
    first two derivatives of a scalar function as an array (3, *theta.shape):
    lane i reads column i of the shared jets."""
    def terms(theta, order):
        jets = np.stack([f(np.asarray(theta, dtype=float)) for f in functions], axis=-1)
        return jets[: order + 1], np.zeros((order + 1,) + np.shape(theta))

    n = len(functions)
    return Lanes(terms, np.eye(n), np.zeros(n))


def quadratic(center, floor=0.0):
    return lambda t: np.array([(t - center) ** 2 + floor, 2 * (t - center), 2 + 0 * t])


class TestMinimizeScalar:
    """Scalar objectives of theta minimized by the lane minimizer."""

    def test_quadratic(self):
        [x] = minimize_lanes(scalar_lanes(quadratic(0.3)), -1.0, 1.0)
        assert abs(x - 0.3) <= 1e-12

    def test_lanes_are_independent(self):
        # three lanes with different minimizers, each equal to its own run
        centers = (-0.7, 0.05, 0.42)
        together = minimize_lanes(scalar_lanes(*map(quadratic, centers)), -1.0, 1.0)
        for i, center in enumerate(centers):
            alone = minimize_lanes(scalar_lanes(quadratic(center)), -1.0, 1.0)
            assert together[i] == alone[0]
            assert abs(alone[0] - center) <= 1e-12

    def test_cosine_matches_dense_grid(self):
        f = lambda t: np.cos(3 * t)
        jets = lambda t: np.array([np.cos(3 * t), -3 * np.sin(3 * t), -9 * np.cos(3 * t)])
        x = minimize_lanes(scalar_lanes(jets), -1.0, 1.0)[0]
        dense = np.linspace(-1, 1, 400001)
        x_dense = dense[int(np.argmin(f(dense)))]
        assert abs(f(x) - f(x_dense)) < 1e-6

    def test_total_hyvarinen_objective(self):
        y = sample_ar1(0.5, 200, 50, seed=30)
        lanes = objective_lanes([series_objective(y, EstimatorKind.HYV_UNIVARIATE, "ar1")])
        x = minimize_lanes(lanes, -0.999, 0.999)[0]
        assert abs(x - 0.5) < 0.05

    def test_all_grid_seeds_nonfinite(self):
        # a NaN statistic makes lane 0 NaN at every seed: the lane fails
        # alone; the other lane is still minimized
        lanes = scalar_lanes(quadratic(0.1), quadratic(0.2))
        lanes.pooled[0, 0] = np.nan
        found = minimize_lanes(lanes, -1.0, 1.0)
        assert isinstance(found, np.ndarray) and found.shape == (2,)
        assert np.isnan(found[0]) and abs(found[1] - 0.2) <= 1e-12

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_lanes(scalar_lanes(quadratic(0.0)), 1.0, -1.0)

    @pytest.mark.parametrize("lo,hi", [(-np.inf, 1.0), (-1.0, np.nan)])
    def test_non_finite_interval(self, lo, hi):
        with pytest.raises(ValueError):
            minimize_lanes(scalar_lanes(quadratic(0.0)), lo, hi)

    @pytest.mark.parametrize("jets,lo,hi,end", [
        (lambda t: np.array([t, 1 + 0 * t, 0 * t]), 0.2, 0.7, 0.2),  # at the lower end
        (lambda t: np.array([-t * t, -2 * t, -2 + 0 * t]), -0.3, 0.9, 0.9),  # at the upper end
    ])
    def test_minimum_at_an_end(self, jets, lo, hi, end):
        # no stationary point: bisection walks the bracket to the end
        x = minimize_lanes(scalar_lanes(jets), lo, hi)[0]
        assert abs(x - end) < 1e-12

    def test_zero_gradient_keeps_theta(self):
        # a lane whose gradient is exactly 0 at its best seed stays there
        seeds = np.linspace(-1.0, 1.0, GRID_POINTS + 2)[1:-1]
        [x] = minimize_lanes(scalar_lanes(quadratic(seeds[40])), -1.0, 1.0)
        assert x == seeds[40]

    @pytest.mark.parametrize("f,got", [
        (lambda t: float(np.sum((t - 0.3) ** 2)), r"\(\)"),  # scalar-only wrapper
        (lambda t: np.zeros(3), r"\(3,\)"),
        (lambda t: np.zeros((64, 1)), r"\(64, 1\)"),
    ])
    def test_objective_not_vectorized_fails_fast(self, f, got):
        # f gives the value of one lane; its derivatives are 0
        def terms(theta, order):
            value = np.asarray(f(theta), dtype=float)
            rows = np.concatenate([value[None], np.zeros((order,) + value.shape)])
            return np.zeros(rows.shape + (1,)), rows

        lanes = Lanes(terms, np.zeros((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match=rf"expected shape \(64,\), got {got}"):
            minimize_lanes(lanes, -1.0, 1.0)

    @pytest.mark.parametrize("jets,got", [
        (lambda t: np.zeros((3, 64)), r"\(64, 1\), got \(64,\)"),  # no statistics axis
        (lambda t: np.zeros((3, 64, 2)), r"\(64, 1\), got \(64, 2\)"),
    ], ids=["no-statistics-axis", "wrong-width"])
    def test_coefficients_not_vectorized_fails_fast(self, jets, got):
        def terms(theta, order):
            return jets(theta)[: order + 1], np.zeros((order + 1,) + np.shape(theta))

        lanes = Lanes(terms, np.zeros((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match=got):
            minimize_lanes(lanes, -1.0, 1.0)

    def test_no_lanes(self):
        # an empty block of objectives has no minimizers, as fit_lanes([]) has
        # no records; numpy once failed to concatenate no grid chunks
        def terms(theta, order):
            shape = (order + 1,) + np.shape(theta)
            return np.zeros(shape + (3,)), np.zeros(shape)

        lanes = Lanes(terms, np.zeros((0, 3)), np.zeros(0))
        found = minimize_lanes(lanes, -1.0, 1.0)
        assert isinstance(found, np.ndarray) and found.shape == (0,)

    def test_grid_scan_holds_a_few_lanes(self):
        # 8 lanes of m = 200 statistics, lane i the quadratic
        # sum_j pooled[i, j] (theta - c_j)^2: the grid product of one lane,
        # 64 * m floats (100 KB), exceeds GRID_FLOATS, so the scan holds one
        # lane's product at a time besides the grid jets, not several lanes'
        n, m = 8, 200
        centers = np.linspace(-0.5, 0.5, m)
        pooled = np.random.default_rng(4).uniform(0.5, 1.5, (n, m))

        def terms(theta, order):
            # the jets d^2, 2d, 2 of d = theta - c_j, no more than asked for
            d = np.subtract.outer(theta, centers)
            coef = np.empty((order + 1,) + d.shape)
            np.multiply(d, d, out=coef[0])
            if order:
                np.multiply(d, 2.0, out=coef[1])
                coef[2] = 2.0
            return coef, np.zeros((order + 1,) + np.shape(theta))

        lanes = Lanes(terms, pooled, np.zeros(n))
        tracemalloc.start()
        try:
            found = minimize_lanes(lanes, -1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * GRID_POINTS * m * 8, peak
        np.testing.assert_allclose(found, pooled @ centers / pooled.sum(axis=1), atol=1e-12)

    def test_multimodal_returns_best_grid_basin(self):
        # two wells; the deeper one must win regardless of the local basin
        def two_wells(t):
            right, left = quadratic(0.7)(t), quadratic(-0.6, floor=0.5)(t)
            return np.where(right[0] <= left[0], right, left)

        for lanes in (scalar_lanes(two_wells), scalar_lanes(quadratic(0.0), two_wells)):
            assert abs(minimize_lanes(lanes, -1.0, 1.0)[-1] - 0.7) < 1e-12


def recorded_lanes(lanes, calls):
    # the same lanes, appending (theta, order, jets) of every call of terms
    def terms(theta, order):
        jets = lanes.terms(theta, order)
        calls.append((np.array(theta, copy=True), order, jets))
        return jets

    return dataclasses.replace(lanes, terms=terms)


def grid_basin(f, lo, hi):
    # the best grid seed of f and its bracket: the seed's neighbours
    xs = np.linspace(lo, hi, GRID_POINTS + 2)[1:-1]
    values = np.array([f(x) for x in xs])
    best = int(np.argmin(np.where(np.isfinite(values), values, np.inf)))
    return xs[best], ((xs[best - 1] if best > 0 else lo),
                      (xs[best + 1] if best < len(xs) - 1 else hi))


class TestBrentMatchesScipy:
    """Edge cases of the lane minimizer, with SciPy's bounded Brent search on
    the best seed's bracket as the reference."""

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: np.array([x, 1 + 0 * x, 0 * x]), 0.2, 0.7),  # minimum at the lower end
        (lambda x: np.array([-x * x, -2 * x, -2 + 0 * x]), -0.3, 0.9),  # at the upper end
        (lambda x: np.array([1 + 0 * x, 0 * x, 0 * x]), -1.0, 1.0),  # constant
        (lambda x: np.array([np.floor(4 * abs(x - 0.3)), 0 * x, 0 * x]), -1.0, 1.0),  # plateaus
        (lambda x: np.where((0.1 < x) & (x < 0.3), np.nan, quadratic(0.2)(x)), -1.0, 1.0),
        (lambda x: np.where(x < 0.0, np.nan, quadratic(0.5)(x)), -1.0, 1.0),  # NaN below 0
        (lambda x: np.where(x > -0.5, np.nan, quadratic(0.5)(x)), -1.0, 1.0),  # NaN above -0.5
    ])
    def test_edge_cases(self, f, a, b):
        # a step onto a non-finite value ends the bracket there, and the lane
        # keeps its last finite iterate: no worse than SciPy in every case
        value = lambda x: float(f(np.asarray(x))[0])
        seed, bracket = grid_basin(value, a, b)
        x = minimize_lanes(scalar_lanes(f), a, b)[0]
        assert bracket[0] <= x <= bracket[1] and value(x) <= value(seed)
        res = sp_optimize.minimize_scalar(value, bounds=bracket, method="bounded",
                                          options={"xatol": 1e-10})
        assert value(x) <= res.fun + 1e-12

    def test_evaluation_cap(self):
        # |x| has h = 0, so every step bisects, and |g| = 1 never stops a lane:
        # it stops after MAX_STEPS steps, the bracket of 0 narrowed by 2**-100
        calls = []
        jets = lambda t: np.array([np.abs(t), np.sign(t), 0 * t])
        x = minimize_lanes(recorded_lanes(scalar_lanes(jets), calls), -1.0, 2.0)[0]
        assert len(calls) == 1 + MAX_STEPS
        assert [order for _, order, _ in calls] == [0] + [2] * MAX_STEPS
        assert abs(x) <= 2.0**-100

    def test_minimize_scalar_refines_the_grid_basin(self):
        objective = series_objective(sample_series("ar1", 0.3, 100, 20, 5), "hyv", "ar1")
        seed, bracket = grid_basin(objective.total, *SEARCH_BOUNDS)
        calls = []
        x = minimize_lanes(recorded_lanes(objective_lanes([objective]), calls),
                           *SEARCH_BOUNDS)[0]
        # one grid scan, then order-2 steps from the best seed inside its bracket
        assert calls[0][0].shape == (GRID_POINTS,) and calls[0][1] == 0
        assert calls[1][0].tolist() == [seed] and len(calls) > 2
        assert all(order == 2 and bracket[0] <= t[0] <= bracket[1] for t, order, _ in calls[1:])
        res = sp_optimize.minimize_scalar(objective.total, bounds=bracket, method="bounded",
                                          options={"xatol": 1e-10})
        assert abs(x - res.x) <= 1e-6 and objective.total(x) <= res.fun + 1e-12


class TestNewtonMatchesScipy:
    """Every estimate is the stationary point of its objective: within 1e-6
    of SciPy's bounded Brent at xatol 1e-10 on the same grid bracket, with
    a gradient at most 1e-10 of the curvature."""

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("model,theta", [("ar1", 0.5), ("ar1", -0.9), ("ma1", 0.9),
                                             ("ma1", -0.4)])
    def test_objectives(self, model, theta, kind):
        seeds = np.linspace(*SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1]
        data = [sample_series(model, theta, 60, 20, seed) for seed in range(6)]
        objectives = [SeriesReduction(y, [kind], model).objective(kind) for y in data]
        found = minimize_lanes(objective_lanes(objectives), *SEARCH_BOUNDS)
        for objective, y, x in zip(objectives, data, found):
            best = int(np.argmin(objective.total(seeds)))
            bracket = (seeds[best - 1] if best > 0 else SEARCH_BOUNDS[0],
                       seeds[best + 1] if best < GRID_POINTS - 1 else SEARCH_BOUNDS[1])
            res = sp_optimize.minimize_scalar(objective.total, bounds=bracket,
                                              method="bounded", options={"xatol": 1e-10})
            assert abs(x - res.x) <= 1e-6
            if min(x - SEARCH_BOUNDS[0], SEARCH_BOUNDS[1] - x) > 4e-6:  # not at a bound
                # a reduction of 60 rows keeps their moments, not the rows
                g, h = (np.sum(d) for d in series_objective(y, kind, model).derivatives(x))
                assert abs(g) <= 1e-10 * abs(h)


def assert_batch_matches_pointwise(f, thetas):
    # one call on the array against one call per value: equal to rounding
    # (1e-13 of the largest value), with the same best entry
    batch = f(thetas)
    point = np.array([f(x) for x in thetas])
    assert isinstance(batch, np.ndarray) and batch.shape == thetas.shape
    assert all(isinstance(v, float) for v in map(f, thetas[:3]))
    assert np.max(np.abs(batch - point)) <= 1e-13 * np.max(np.abs(point))
    assert np.argmin(batch) == np.argmin(point)


# the minimizer's grid crosses the AR(1) sign switch at 0 and reaches +-0.97;
# add 0 and the search bounds
ORACLE_THETAS = np.concatenate([
    np.linspace(*SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1], [0.0, -0.999, 0.999],
])


class TestBatchedGrid:
    """An array of theta evaluates in one call what the scalar path gives."""

    @pytest.mark.parametrize("model,kind,t_len", [
        (model, kind, t_len)
        for model in ("ar1", "ma1") for kind in ("full", "pairwise", "hyv")
        for t_len in (2, 3, 50, 201) if (model, kind, t_len) != ("ar1", "hyv", 2)
    ])
    def test_series_objective(self, model, kind, t_len):
        y = sample_series(model, 0.6, 40, t_len, seed=t_len)
        assert_batch_matches_pointwise(series_objective(y, kind, model).total, ORACLE_THETAS)

    @pytest.mark.parametrize("t_len", [2, 3, 50, 201])
    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_wishart_score(self, model, t_len):
        y = sample_series(model, -0.6, t_len + 10, t_len, seed=t_len)
        ctx = wishart_context(sum_of_squares(y), nu=t_len + 10, model=model)
        assert_batch_matches_pointwise(ctx.total, ORACLE_THETAS)


class TestDerivatives:
    def test_hyvarinen_gradient_matches_hand_derivative(self):
        # hand differentiation of the closed-form AR(1) score in phi at sigma2=1:
        # dH/dphi = sum_interior r_t (2 phi d_t - d_{t-1} - d_{t+1})
        #           - r_1 d_2 - r_T d_{T-1} - 2 phi (T - 2)
        rng = np.random.default_rng(31)
        y = rng.standard_normal(12)
        phi = 0.3

        def closed_form_grad(y, phi):
            d = y
            interior = (1 + phi**2) * d[1:-1] - phi * (d[:-2] + d[2:])
            r1 = d[0] - phi * d[1]
            rT = d[-1] - phi * d[-2]
            return (
                np.sum(interior * (2 * phi * d[1:-1] - d[:-2] - d[2:]))
                - r1 * d[1]
                - rT * d[-2]
                - 2 * phi * (len(y) - 2)
            )

        objective = series_objective(y, EstimatorKind.HYV_UNIVARIATE, "ar1")
        grad, _ = objective.derivatives(phi)
        assert abs(grad[0] - closed_form_grad(y, phi)) < 1e-12
