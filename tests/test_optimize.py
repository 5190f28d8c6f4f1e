"""Scalar minimizer, its batched grid, and a hand derivative against the exact
objective gradient."""

import numpy as np
import pytest
from scipy import optimize as sp_optimize

from minscore import (
    EstimatorKind,
    MinimizationError,
    hw_score,
    minimize_scalar,
    params_for,
    sample_ar1,
    sample_series,
    series_objective,
    sum_of_squares,
    total_score,
    wishart_context,
)
from minscore.optimize import GRID_POINTS, _bounded_brent
from minscore.scores import _order0_jets, _terms
from minscore.wishart import SEARCH_BOUNDS


class TestMinimizeScalar:
    def test_quadratic(self):
        x = minimize_scalar(lambda t: (t - 0.3) ** 2, -1.0, 1.0, tol=1e-6)
        assert abs(x - 0.3) <= 1e-6

    def test_cosine_matches_dense_grid(self):
        f = lambda t: np.cos(3 * t)
        x = minimize_scalar(f, -1.0, 1.0, tol=1e-6)
        dense = np.linspace(-1, 1, 400001)
        x_dense = dense[int(np.argmin(f(dense)))]
        assert abs(f(x) - f(x_dense)) < 1e-6

    def test_total_hyvarinen_objective(self):
        y = sample_ar1(params_for("ar1", 0.5), 200, 50, seed=30)
        x = minimize_scalar(
            np.vectorize(lambda th: total_score(y, EstimatorKind.HYV_UNIVARIATE, "ar1", th),
                         otypes=[float]),
            -0.999,
            0.999,
            tol=1e-6,
        )
        assert abs(x - 0.5) < 0.05

    def test_all_grid_seeds_nonfinite(self):
        with pytest.raises(MinimizationError):
            minimize_scalar(lambda t: np.full(np.shape(t), np.nan), -1.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t * t, 1.0, -1.0)

    @pytest.mark.parametrize("lo,hi", [(-np.inf, 1.0), (-1.0, np.nan)])
    def test_non_finite_interval(self, lo, hi):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t * t, lo, hi)

    @pytest.mark.parametrize("f,got", [
        (lambda t: float(np.sum((t - 0.3) ** 2)), r"\(\)"),  # scalar-only wrapper
        (lambda t: np.zeros(3), r"\(3,\)"),
        (lambda t: np.zeros((64, 1)), r"\(64, 1\)"),
    ])
    def test_objective_not_vectorized_fails_fast(self, f, got):
        with pytest.raises(ValueError, match=rf"expected shape \(64,\), got {got}"):
            minimize_scalar(f, -1.0, 1.0)

    def test_multimodal_returns_best_grid_basin(self):
        # two wells; the deeper one must win regardless of Brent's local basin
        f = lambda t: np.minimum((t - 0.7) ** 2, (t + 0.6) ** 2 + 0.5)
        x = minimize_scalar(f, -1.0, 1.0, tol=1e-8)
        assert abs(x - 0.7) < 1e-6


def assert_same_search(f, a, b, tol=1e-6):
    """Run this package's bounded Brent and SciPy's ``minimize_scalar(method=
    "bounded")`` on [a, b]; both must pass ``f`` the same points and return
    the same point and value.  Returns ours: the points and the result."""
    ours, theirs = [], []
    x_ours, f_ours = _bounded_brent(lambda x: ours.append(x) or f(x), a, b, tol)
    res = sp_optimize.minimize_scalar(
        lambda x: theirs.append(x) or f(x), bounds=(a, b), method="bounded",
        options={"xatol": tol},
    )
    assert len(ours) == len(theirs)
    assert np.array_equal(ours, theirs, equal_nan=True)
    assert np.array_equal(x_ours, res.x, equal_nan=True)
    assert np.array_equal(f_ours, res.fun, equal_nan=True)
    return ours, x_ours


def grid_basin(f, lo, hi):
    # the bracket minimize_scalar hands to Brent: the best grid seed's neighbours
    xs = np.linspace(lo, hi, GRID_POINTS + 2)[1:-1]
    best = int(np.argmin([f(x) for x in xs]))
    return (xs[best - 1] if best > 0 else lo), (xs[best + 1] if best < len(xs) - 1 else hi)


class TestBrentMatchesScipy:
    """The bounded Brent search reproduces SciPy's iterates to the bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["full", "pairwise", "hyv"])
    @pytest.mark.parametrize("model,theta", [("ar1", 0.5), ("ma1", -0.6)])
    def test_series_objective(self, model, theta, kind, seed):
        f = series_objective(sample_series(model, theta, 200, 50, seed), kind, model).total
        assert_same_search(f, *SEARCH_BOUNDS)
        assert_same_search(f, *grid_basin(f, *SEARCH_BOUNDS))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("model,theta", [("ar1", -0.5), ("ma1", 0.9)])
    def test_wishart_score(self, model, theta, seed):
        ctx = wishart_context(sum_of_squares(sample_series(model, theta, 200, 50, seed)),
                              nu=200, model=model)
        f = lambda lam: hw_score(ctx, lam)
        assert_same_search(f, *SEARCH_BOUNDS)
        assert_same_search(f, *grid_basin(f, *SEARCH_BOUNDS))

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x, 0.2, 0.7),  # minimum at the lower end
        (lambda x: -x * x, -0.3, 0.9),  # minimum at the upper end
        (lambda x: 1.0, -1.0, 1.0),  # constant
        (lambda x: float(np.floor(4 * abs(x - 0.3))), -1.0, 1.0),  # plateaus: tied values
        (lambda x: np.nan if 0.1 < x < 0.3 else (x - 0.2) ** 2, -1.0, 1.0),
        (lambda x: np.nan if x < 0.0 else (x - 0.5) ** 2, -1.0, 1.0),  # NaN at the start
    ])
    def test_edge_cases(self, f, a, b):
        assert_same_search(f, a, b)

    @pytest.mark.parametrize("value", [np.float64, np.asarray, float])
    def test_objective_value_types(self, value):
        # the search takes each value as a float: a numpy scalar, a 0-d array
        # and a Python float give the same iterates
        f = series_objective(sample_series("ma1", -0.6, 200, 50, 1), "hyv", "ma1").total
        assert_same_search(lambda x: value(f(x)), *SEARCH_BOUNDS)
        assert_same_search(lambda x: value(f(x)), *grid_basin(f, *SEARCH_BOUNDS))

    def test_tight_tolerance(self):
        y = sample_series("ma1", 0.3, 200, 50, 4)
        assert_same_search(series_objective(y, "hyv", "ma1").total, *SEARCH_BOUNDS, tol=1e-9)

    def test_evaluation_cap(self):
        # xatol = 0 at a minimum in 0 never converges; both stop at 500 calls
        assert len(assert_same_search(lambda x: abs(x), -1.0, 2.0, tol=0.0)[0]) == 500

    def test_minimize_scalar_refines_the_grid_basin(self):
        f = series_objective(sample_series("ar1", 0.3, 100, 20, 5), "hyv", "ar1").total
        calls = []
        x = minimize_scalar(lambda t: calls.append(t) or f(t), *SEARCH_BOUNDS)
        brent, x_brent = assert_same_search(f, *grid_basin(f, *SEARCH_BOUNDS))
        assert calls[0].shape == (64,) and calls[1:] == brent and x == x_brent


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
        assert_batch_matches_pointwise(lambda lam: hw_score(ctx, lam), ORACLE_THETAS)


class TestCachedGridJets:
    """The minimizer's grid jets, cached per (kind, model, T, bounds), equal a
    fresh evaluation to the bit and cannot be written to."""

    @pytest.mark.parametrize("terms,args", [
        (_terms, (EstimatorKind(kind), model, t_len))
        for model in ("ar1", "ma1") for kind in ("full", "pairwise", "hyv")
        for t_len in (3, 50, 201)
    ] + [(_terms, (EstimatorKind.HYV_WISHART, model, t_len))
         for model in ("ar1", "ma1") for t_len in (3, 50)])
    def test_equal_to_fresh_and_read_only(self, terms, args):
        seeds = np.linspace(*SEARCH_BOUNDS, GRID_POINTS + 2)[1:-1]
        cached = _order0_jets(args, seeds)
        fresh = terms(*args, seeds.copy())
        for jet, reference in zip(cached, fresh, strict=True):
            assert jet.shape == reference.shape and jet.tobytes() == reference.tobytes()
            assert not jet.flags.writeable
        # a second scan of the same grid reads the cache
        assert all(a is b for a, b in zip(_order0_jets(args, seeds), cached))


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
