"""Scalar minimizer, and a hand derivative against the exact objective gradient."""

import numpy as np
import pytest

from minscore import (
    EstimatorKind,
    MinimizationError,
    minimize_scalar,
    params_for,
    sample_ar1,
    series_objective,
    total_score,
)


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
            lambda th: total_score(y, EstimatorKind.HYV_UNIVARIATE, "ar1", th),
            -0.999,
            0.999,
            tol=1e-6,
        )
        assert abs(x - 0.5) < 0.05

    def test_all_grid_seeds_nonfinite(self):
        with pytest.raises(MinimizationError):
            minimize_scalar(lambda t: float("nan"), -1.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t * t, 1.0, -1.0)

    def test_multimodal_returns_best_grid_basin(self):
        # two wells; the deeper one must win regardless of Brent's local basin
        f = lambda t: min((t - 0.7) ** 2, (t + 0.6) ** 2 + 0.5)
        x = minimize_scalar(f, -1.0, 1.0, tol=1e-8)
        assert abs(x - 0.7) < 1e-6


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
