"""Covariance/precision builders and samplers."""

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    Ar1Params,
    Ma1Params,
    ar1_covariance,
    ar1_precision,
    ma1_covariance,
    ma1_precision,
    params_for,
    sample_ar1,
    sample_ma1,
    sum_of_squares,
)

PHI_GRID = [-0.9, -0.5, 0.0, 0.5, 0.9]


class TestParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            Ar1Params(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Ar1Params(0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            Ma1Params(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            Ma1Params(0.0, 0.0, 0.5)

    def test_params_for_dispatch(self):
        assert isinstance(params_for("ar1", 0.2), Ar1Params)
        assert isinstance(params_for("MA1", 0.2), Ma1Params)
        with pytest.raises(ValueError):
            params_for("arma", 0.2)


class TestAr1Covariance:
    def test_white_noise_is_identity(self):
        npt.assert_array_equal(ar1_covariance(Ar1Params(0, 1, 0.0), 3), np.eye(3))

    def test_t2_values(self):
        cov = ar1_covariance(Ar1Params(0, 1, 0.5), 2)
        npt.assert_allclose(cov, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], rtol=1e-15)

    def test_sigma2_scaling(self):
        one = ar1_covariance(Ar1Params(0, 1, 0.5), 2)
        two = ar1_covariance(Ar1Params(0, 2, 0.5), 2)
        npt.assert_allclose(two, 2.0 * one, rtol=1e-15)

    def test_symmetric_as_stored(self):
        cov = ar1_covariance(Ar1Params(0, 1.7, -0.8), 9)
        assert np.array_equal(cov, cov.T)


class TestAr1Precision:
    def test_t2_matches_dense_inverse(self):
        params = Ar1Params(0, 1, 0.5)
        expected = np.linalg.inv(ar1_covariance(params, 2))
        got = ar1_precision(params, 2)
        npt.assert_allclose(got, expected, atol=1e-12)
        npt.assert_allclose(got, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)

    def test_identity_at_phi_zero(self):
        npt.assert_array_equal(ar1_precision(Ar1Params(0, 1, 0.0), 6), np.eye(6))

    def test_t4_pattern_vs_inverse(self):
        params = Ar1Params(0, 1, 0.9)
        got = ar1_precision(params, 4)
        npt.assert_allclose(got, np.linalg.inv(ar1_covariance(params, 4)), atol=1e-10)
        npt.assert_allclose(np.diag(got), [1.0, 1.81, 1.81, 1.0], rtol=1e-12)
        npt.assert_allclose(np.diag(got, 1), [-0.9, -0.9, -0.9], rtol=1e-12)

    @pytest.mark.parametrize("t_len", range(2, 21))
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_product_is_identity(self, t_len, phi):
        params = Ar1Params(0.0, 1.3, phi)
        product = ar1_precision(params, t_len) @ ar1_covariance(params, t_len)
        npt.assert_allclose(product, np.eye(t_len), atol=1e-10)

    def test_requires_t_at_least_two(self):
        with pytest.raises(ValueError):
            ar1_precision(Ar1Params(0, 1, 0.5), 1)


class TestMa1Covariance:
    def test_values(self):
        cov = ma1_covariance(Ma1Params(0, 1, 0.5), 2)
        npt.assert_allclose(cov, [[1.25, 0.5], [0.5, 1.25]], rtol=1e-15)

    def test_identity_at_alpha_zero(self):
        npt.assert_array_equal(ma1_covariance(Ma1Params(0, 1, 0.0), 3), np.eye(3))

    def test_negative_alpha_pattern(self):
        cov = ma1_covariance(Ma1Params(0, 1, -0.5), 3)
        npt.assert_allclose(np.diag(cov), [1.25, 1.25, 1.25], rtol=1e-15)
        npt.assert_allclose(np.diag(cov, 1), [-0.5, -0.5], rtol=1e-15)
        assert cov[0, 2] == 0.0


class TestMa1Precision:
    @pytest.mark.parametrize("alpha", [-0.7, -0.2, 0.0, 0.4, 0.8])
    def test_scalar_case(self, alpha):
        got = ma1_precision(Ma1Params(0, 1, alpha), 1)
        npt.assert_allclose(got, [[1.0 / (1.0 + alpha**2)]], rtol=1e-14)

    def test_t2_matches_dense_inverse(self):
        params = Ma1Params(0, 1, 0.5)
        got = ma1_precision(params, 2)
        expected = np.linalg.inv(ma1_covariance(params, 2))
        npt.assert_allclose(got, expected, atol=1e-12)
        # det of the 2x2 covariance is 1.3125
        npt.assert_allclose(got, np.array([[1.25, -0.5], [-0.5, 1.25]]) / 1.3125, rtol=1e-12)

    def test_sigma2_scaling(self):
        one = ma1_precision(Ma1Params(0, 1, 0.5), 2)
        half = ma1_precision(Ma1Params(0, 2, 0.5), 2)
        npt.assert_allclose(half, 0.5 * one, rtol=1e-14)

    @pytest.mark.parametrize("t_len", range(1, 21))
    @pytest.mark.parametrize("alpha", PHI_GRID)
    def test_matches_dense_inversion(self, t_len, alpha):
        params = Ma1Params(0.0, 1.0, alpha)
        got = ma1_precision(params, t_len)
        expected = np.linalg.inv(ma1_covariance(params, t_len))
        npt.assert_allclose(got, expected, atol=1e-10)

    def test_symmetric_as_stored(self):
        prec = ma1_precision(Ma1Params(0, 1, 0.6), 11)
        assert np.array_equal(prec, prec.T)

    @pytest.mark.parametrize("t_len", [1, 2, 50, 200])
    @pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 0.3, 0.9])
    def test_equals_elementwise_power_formula(self, t_len, alpha):
        # indexing the T powers of -alpha must give the same bits as raising
        # -alpha to the whole lag matrix
        a = alpha
        g = np.cumsum(np.power(a * a, np.arange(t_len + 1)))
        idx = np.arange(t_len)
        lo = np.minimum.outer(idx, idx)
        hi = np.maximum.outer(idx, idx)
        expected = np.power(-a, hi - lo) * g[lo] * g[t_len - 1 - hi] / (g[t_len] * 1.3)
        assert np.array_equal(ma1_precision(Ma1Params(0.2, 1.3, alpha), t_len), expected)


class TestSamplers:
    def test_ar1_seed_determinism(self):
        params = Ar1Params(0, 1, 0.3)
        npt.assert_array_equal(
            sample_ar1(params, 5, 7, seed=42), sample_ar1(params, 5, 7, seed=42)
        )

    def test_ma1_seed_determinism(self):
        params = Ma1Params(0, 1, -0.4)
        npt.assert_array_equal(
            sample_ma1(params, 5, 7, seed=42), sample_ma1(params, 5, 7, seed=42)
        )

    def test_ar1_iid_variance(self):
        y = sample_ar1(Ar1Params(0, 1, 0.0), 200, 50, seed=7)
        assert abs(np.var(y) - 1.0) < 0.02

    def test_ar1_lag1_autocovariance(self):
        y = sample_ar1(Ar1Params(0, 1, 0.5), 2000, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        assert abs(lag1 - 2.0 / 3.0) < 0.05

    def test_ma1_iid_case(self):
        y = sample_ma1(Ma1Params(0, 1, 0.0), 200, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        assert abs(lag1) < 0.02

    def test_ma1_lag_structure(self):
        y = sample_ma1(Ma1Params(0, 1, 0.5), 2000, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        lag2 = np.mean(y[:, 2:] * y[:, :-2])
        assert abs(lag1 - 0.5) < 0.05
        assert abs(lag2) < 0.05

    @pytest.mark.parametrize("model,theta", [("ar1", 0.6), ("ma1", -0.5)])
    def test_sample_covariance_matches_analytic(self, model, theta):
        # entrywise error within 5 Monte Carlo standard errors
        nu, t_len = 5000, 10
        params = params_for(model, theta)
        if model == "ar1":
            y = sample_ar1(params, nu, t_len, seed=11)
            target = ar1_covariance(params, t_len)
        else:
            y = sample_ma1(params, nu, t_len, seed=11)
            target = ma1_covariance(params, t_len)
        sample_cov = (y.T @ y) / nu
        # var of a cross-moment estimate: (psi_ii psi_jj + psi_ij^2) / nu
        mc_se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / nu)
        assert np.all(np.abs(sample_cov - target) <= 5.0 * mc_se)

    def test_domain_errors(self):
        params = Ar1Params(0, 1, 0.3)
        with pytest.raises(ValueError):
            sample_ar1(params, 0, 5, seed=1)
        with pytest.raises(ValueError):
            sample_ma1(Ma1Params(0, 1, 0.3), 3, 0, seed=1)


class TestSumOfSquares:
    def test_outer_product(self):
        npt.assert_array_equal(sum_of_squares([[1.0, 2.0]]), [[1.0, 2.0], [2.0, 4.0]])

    def test_identity(self):
        npt.assert_array_equal(sum_of_squares(np.eye(2)), np.eye(2))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((6, 4))
        s = sum_of_squares(y)
        brute = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for r in range(6):
                    brute[i, j] += y[r, i] * y[r, j]
        npt.assert_allclose(s, brute, atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        s = sum_of_squares(rng.standard_normal((50, 12)))
        assert np.array_equal(s, s.T)
