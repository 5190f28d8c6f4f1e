"""Covariance/precision builders and samplers."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from minscore import (
    ma1_eigenvalues,
    ma1_sine_transform,
    sample_ar1,
    sample_ma1,
    sample_series,
    sum_of_squares,
)
from minscore.selfcheck import ar1_covariance, ar1_precision, ma1_covariance, ma1_precision

PHI_GRID = [-0.9, -0.5, 0.0, 0.5, 0.9]


class TestParams:
    def test_bounds_enforced(self):
        # the samplers take theta alone and name the bound it violates
        for sampler, bound in ((sample_ar1, "stationarity requires |phi| < 1"),
                               (sample_ma1, "invertibility requires |alpha| < 1")):
            for theta in (1.0, -1.0, np.nan):
                with pytest.raises(ValueError, match=re.escape(bound)):
                    sampler(theta, 3, 5, seed=1)

    @pytest.mark.parametrize("call,message", [
        (lambda: sample_series("ma1", 0.5, 3, 4.7, 1),
         "series length must be an integer, got 4.7"),
        (lambda: sample_ar1(0.5, 3, 4.7, 1), "series length must be an integer, got 4.7"),
        (lambda: sample_ma1(0.5, 2.9, 4, 1), "nu must be an integer, got 2.9"),
        (lambda: ma1_eigenvalues(0.3, 4.9), "series length must be an integer, got 4.9"),
        (lambda: sample_ar1(0.5, True, 10, 0), "nu must be an integer, got True"),
    ], ids=["sample_series", "sample_ar1", "sample_ma1", "ma1_eigenvalues", "sample_ar1_bool"])
    def test_non_integral_sizes_rejected(self, call, message):
        # each was once truncated, to T = 4 or nu = 2, without a word; nu = True
        # once sampled one series
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("helper,name", [(sum_of_squares, "series"),
                                             (ma1_sine_transform, "x")])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_input_rejected(self, helper, name, dtype):
        # the imaginary parts were once dropped with only a ComplexWarning
        message = f"^{name} must be real, got dtype {np.dtype(dtype)}$"
        with pytest.raises(ValueError, match=message):
            helper(np.ones((3, 4), dtype=dtype))

    def test_numpy_integer_sizes_accepted(self):
        assert sample_ar1(0.5, np.int64(3), np.int32(4), 1).shape == (3, 4)
        assert ma1_eigenvalues(0.3, np.int64(4)).shape == (1, 4)

    def test_sample_series_dispatch(self):
        npt.assert_array_equal(sample_series("ar1", 0.2, 3, 5, seed=1),
                               sample_ar1(0.2, 3, 5, seed=1))
        npt.assert_array_equal(sample_series("MA1", 0.2, 3, 5, seed=1),
                               sample_ma1(0.2, 3, 5, seed=1))
        with pytest.raises(ValueError):
            sample_series("arma", 0.2, 3, 5, seed=1)


class TestAr1Covariance:
    def test_white_noise_is_identity(self):
        npt.assert_array_equal(ar1_covariance(0.0, 3), np.eye(3))

    def test_t2_values(self):
        cov = ar1_covariance(0.5, 2)
        npt.assert_allclose(cov, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], rtol=1e-15)

    def test_symmetric_as_stored(self):
        cov = ar1_covariance(-0.8, 9)
        assert np.array_equal(cov, cov.T)


class TestAr1Precision:
    def test_t2_matches_dense_inverse(self):
        expected = np.linalg.inv(ar1_covariance(0.5, 2))
        got = ar1_precision(0.5, 2)
        npt.assert_allclose(got, expected, atol=1e-12)
        npt.assert_allclose(got, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)

    def test_identity_at_phi_zero(self):
        npt.assert_array_equal(ar1_precision(0.0, 6), np.eye(6))

    def test_t4_pattern_vs_inverse(self):
        got = ar1_precision(0.9, 4)
        npt.assert_allclose(got, np.linalg.inv(ar1_covariance(0.9, 4)), atol=1e-10)
        npt.assert_allclose(np.diag(got), [1.0, 1.81, 1.81, 1.0], rtol=1e-12)
        npt.assert_allclose(np.diag(got, 1), [-0.9, -0.9, -0.9], rtol=1e-12)

    @pytest.mark.parametrize("t_len", range(2, 21))
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_product_is_identity(self, t_len, phi):
        product = ar1_precision(phi, t_len) @ ar1_covariance(phi, t_len)
        npt.assert_allclose(product, np.eye(t_len), atol=1e-10)

    def test_requires_t_at_least_two(self):
        with pytest.raises(ValueError):
            ar1_precision(0.5, 1)


class TestMa1Covariance:
    def test_values(self):
        cov = ma1_covariance(0.5, 2)
        npt.assert_allclose(cov, [[1.25, 0.5], [0.5, 1.25]], rtol=1e-15)

    def test_identity_at_alpha_zero(self):
        npt.assert_array_equal(ma1_covariance(0.0, 3), np.eye(3))

    def test_negative_alpha_pattern(self):
        cov = ma1_covariance(-0.5, 3)
        npt.assert_allclose(np.diag(cov), [1.25, 1.25, 1.25], rtol=1e-15)
        npt.assert_allclose(np.diag(cov, 1), [-0.5, -0.5], rtol=1e-15)
        assert cov[0, 2] == 0.0


class TestMa1Precision:
    @pytest.mark.parametrize("alpha", [-0.7, -0.2, 0.0, 0.4, 0.8])
    def test_scalar_case(self, alpha):
        got = ma1_precision(alpha, 1)
        npt.assert_allclose(got, [[1.0 / (1.0 + alpha**2)]], rtol=1e-14)

    def test_t2_matches_dense_inverse(self):
        got = ma1_precision(0.5, 2)
        expected = np.linalg.inv(ma1_covariance(0.5, 2))
        npt.assert_allclose(got, expected, atol=1e-12)
        # det of the 2x2 covariance is 1.3125
        npt.assert_allclose(got, np.array([[1.25, -0.5], [-0.5, 1.25]]) / 1.3125, rtol=1e-12)

    @pytest.mark.parametrize("t_len", range(1, 21))
    @pytest.mark.parametrize("alpha", PHI_GRID)
    def test_matches_dense_inversion(self, t_len, alpha):
        got = ma1_precision(alpha, t_len)
        expected = np.linalg.inv(ma1_covariance(alpha, t_len))
        npt.assert_allclose(got, expected, atol=1e-10)

    def test_symmetric_as_stored(self):
        prec = ma1_precision(0.6, 11)
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
        expected = np.power(-a, hi - lo) * g[lo] * g[t_len - 1 - hi] / g[t_len]
        assert np.array_equal(ma1_precision(alpha, t_len), expected)


class TestSamplers:
    def test_ar1_seed_determinism(self):
        npt.assert_array_equal(sample_ar1(0.3, 5, 7, seed=42), sample_ar1(0.3, 5, 7, seed=42))

    def test_ma1_seed_determinism(self):
        npt.assert_array_equal(sample_ma1(-0.4, 5, 7, seed=42), sample_ma1(-0.4, 5, 7, seed=42))

    @pytest.mark.parametrize("nu,t_len", [(1, 1), (1, 2), (3, 7), (200, 50)])
    @pytest.mark.parametrize("phi", [-0.999, -0.5, 0.0, 0.5, 0.999])
    def test_ar1_recursion_keeps_the_column_slicing_bits(self, phi, nu, t_len):
        # the recursion over the column views of y against the loop that
        # sliced y[:, t - 1] and y[:, t] at every step: the same products and
        # sums, so the same bits, from an integer seed and a study's seed
        def sliced(seed):
            y = np.random.default_rng(seed).standard_normal((nu, t_len))
            y[:, 0] /= np.sqrt(1.0 - phi**2)
            scratch = np.empty(nu)
            for t in range(1, t_len):
                np.multiply(y[:, t - 1], phi, out=scratch)
                y[:, t] += scratch
            return y

        for seed in (5, np.random.SeedSequence(entropy=20260808, spawn_key=(1, 2, 0))):
            got, want = sample_ar1(phi, nu, t_len, seed), sliced(seed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_ar1_iid_variance(self):
        y = sample_ar1(0.0, 200, 50, seed=7)
        assert abs(np.var(y) - 1.0) < 0.02

    def test_ar1_lag1_autocovariance(self):
        y = sample_ar1(0.5, 2000, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        assert abs(lag1 - 2.0 / 3.0) < 0.05

    def test_ma1_iid_case(self):
        y = sample_ma1(0.0, 200, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        assert abs(lag1) < 0.02

    def test_ma1_lag_structure(self):
        y = sample_ma1(0.5, 2000, 50, seed=7)
        lag1 = np.mean(y[:, 1:] * y[:, :-1])
        lag2 = np.mean(y[:, 2:] * y[:, :-2])
        assert abs(lag1 - 0.5) < 0.05
        assert abs(lag2) < 0.05

    @pytest.mark.parametrize("model,theta", [("ar1", 0.6), ("ma1", -0.5)])
    def test_sample_covariance_matches_analytic(self, model, theta):
        # entrywise error within 5 Monte Carlo standard errors
        nu, t_len = 5000, 10
        y = sample_series(model, theta, nu, t_len, seed=11)
        target = (ar1_covariance if model == "ar1" else ma1_covariance)(theta, t_len)
        sample_cov = (y.T @ y) / nu
        # var of a cross-moment estimate: (psi_ii psi_jj + psi_ij^2) / nu
        mc_se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / nu)
        assert np.all(np.abs(sample_cov - target) <= 5.0 * mc_se)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_ar1(0.3, 0, 5, seed=1)
        with pytest.raises(ValueError):
            sample_ma1(0.3, 3, 0, seed=1)


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

    @staticmethod
    def layouts(nu, t_len, seed):
        base = np.random.default_rng(seed).standard_normal((2 * nu + 1, 2 * t_len + 1))
        packed = bytearray(1) + bytearray(base[:nu, :t_len].tobytes())
        return {
            "C": base[:nu, :t_len].copy(),
            "F": np.asfortranarray(base[:nu, :t_len]),
            "row view": base[:nu, :t_len],
            "column view": np.asfortranarray(base)[:nu, :t_len],
            "strided": base[::2, ::2][:nu, :t_len],
            "reversed": base[:nu, :t_len][::-1, ::-1],
            "unaligned": np.frombuffer(packed, offset=1).reshape(nu, t_len),
        }

    @pytest.mark.parametrize("nu,t_len", [(1, 1), (20, 5), (200, 50), (265, 78), (292, 70)])
    def test_symmetric_on_every_layout(self, nu, t_len):
        # S is Y'Y with no symmetrizing pass.  An aligned layout with a unit
        # stride goes to BLAS as it is and gives the symmetrized product to the
        # bit; the others are copied first (numpy's own product of the strided
        # and reversed views at 265 x 78 and 292 x 70 is asymmetric by ~6e-14)
        for name, y in self.layouts(nu, t_len, seed=nu).items():
            s = sum_of_squares(y)
            assert np.array_equal(s, s.T), name
            if y.flags.aligned and y.itemsize in y.strides:
                raw = y.T @ y
                assert np.array_equal(s, 0.5 * (raw + raw.T)), name
            else:
                c = y.copy()  # C order and aligned
                assert np.array_equal(s, c.T @ c), name


class TestMa1Spectrum:
    @staticmethod
    def dense_basis(t_len):
        k = np.arange(1, t_len + 1)
        return np.sqrt(2.0 / (t_len + 1)) * np.sin(np.outer(k, k) * np.pi / (t_len + 1))

    @pytest.mark.parametrize("t_len", [1, 2, 7, 50, 201])
    def test_transform_is_the_dense_basis(self, t_len):
        u = self.dense_basis(t_len)
        x = np.random.default_rng(t_len).standard_normal((3, t_len))
        npt.assert_allclose(ma1_sine_transform(x), x @ u, atol=1e-13)
        npt.assert_allclose(ma1_sine_transform(x[0]), x[0] @ u, atol=1e-13)

    @pytest.mark.parametrize("t_len", [3, 8, 50, 201, 300])
    @pytest.mark.parametrize("shape,at_t2", [
        (lambda t: (t - 1, t), False),
        (lambda t: (t, t), True),
        (lambda t: (t,), False),
        (lambda t: (2, (t + 1) // 2, t), True),
        (lambda t: (2, (t - 1) // 2, t), False),
    ], ids=["T-1 rows", "T rows", "one series", "3-D at T^2", "3-D below T^2"])
    def test_size_rule(self, monkeypatch, t_len, shape, at_t2):
        # the basis is used exactly when it fits in BASIS_FLOATS (T <= 256)
        # or x holds at least T^2 floats; both sides are the dense basis to
        # rounding
        import minscore.models as models

        built = []
        real_basis = models._sine_basis

        def basis(t):
            built.append(t)
            return real_basis(t)

        monkeypatch.setattr(models, "_sine_basis", basis)
        x = np.random.default_rng(t_len).standard_normal(shape(t_len))
        u = self.dense_basis(t_len)
        npt.assert_allclose(ma1_sine_transform(x), x @ u, atol=1e-13)
        assert built == ([t_len] if at_t2 or t_len * t_len <= models.BASIS_FLOATS else [])

    @pytest.mark.parametrize("t_len", [2, 7, 50, 201, 300])
    def test_dense_and_fft_sides_agree(self, t_len):
        # one (T, T) matrix takes the basis, each of its rows alone the FFT
        # once T^2 exceeds BASIS_FLOATS (T = 300)
        x = np.random.default_rng(t_len + 1).standard_normal((t_len, t_len))
        by_rows = np.array([ma1_sine_transform(row) for row in x])
        npt.assert_allclose(ma1_sine_transform(x), by_rows, atol=1e-13)

    @pytest.mark.parametrize("t_len", [7, 50, 201, 256])
    def test_row_and_stack_take_one_basis(self, t_len):
        # while the basis fits in BASIS_FLOATS the route depends on T alone:
        # a row and its stack of T - 1 rows are both products with the cached
        # U.  The BLAS matrix-vector kernel of one row may round differently
        # from the matrix-matrix kernel of a stack, so they agree to rounding.
        import minscore.models as models

        u = models._sine_basis(t_len)
        x = np.random.default_rng(t_len + 2).standard_normal((t_len - 1, t_len))
        stacked = ma1_sine_transform(x)
        assert np.array_equal(stacked, x @ u)
        for i in (0, t_len // 2, t_len - 2):
            assert np.array_equal(ma1_sine_transform(x[i]), x[i] @ u)
            npt.assert_allclose(ma1_sine_transform(x[i]), stacked[i], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t_len", [1, 2, 7, 50, 200, 201, 256])
    def test_basis_is_the_direct_sines(self, t_len):
        # the 2T + 2 entry sine table gives the bits of one sine per entry
        import minscore.models as models

        k = np.arange(1, t_len + 1)
        jk = np.outer(k, k) % (2 * t_len + 2)
        direct = np.sqrt(2.0 / (t_len + 1)) * np.sin(jk * (np.pi / (t_len + 1)))
        assert np.array_equal(models._sine_basis(t_len), direct)

    def test_basis_cache_is_bounded_and_read_only(self):
        import minscore.models as models

        u = models._sine_basis(201)
        assert not u.flags.writeable
        assert models._sine_basis.cache_info().maxsize is not None
        npt.assert_array_equal(u, u.T)
        # with the sine arguments reduced mod 2(T+1) in integers, U is
        # orthogonal to 7e-16 at T = 201; unreduced, it is off by 1e-14
        npt.assert_allclose(u @ u, np.eye(201), atol=2e-15)

    @pytest.mark.parametrize("t_len", [1, 2, 7, 50])
    @pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 0.63, 0.999])
    def test_basis_diagonalizes_the_covariance(self, t_len, alpha):
        u = ma1_sine_transform(np.eye(t_len))
        lam = ma1_eigenvalues(alpha, t_len)[0]
        npt.assert_allclose(u @ u, np.eye(t_len), atol=1e-13)
        npt.assert_allclose(u @ np.diag(lam) @ u, ma1_covariance(alpha, t_len),
                            atol=1e-13)
        assert np.all(lam > 0)

    @staticmethod
    def where_eigenvalues(alpha, t_len):
        # the jet as np.where once picked each half-angle row
        k = np.arange(1, t_len + 1)
        s2 = np.sin(k * (np.pi / (2 * (t_len + 1)))) ** 2
        c2 = s2[::-1]
        alpha = np.asarray(alpha, dtype=float)[..., None]
        a = np.abs(alpha)
        gap = 1.0 - a
        lam = np.where(alpha < 0, s2, c2)
        lam *= 4.0 * a
        lam += gap * gap
        return np.array([lam, 2.0 * (alpha + (c2 - s2)), np.full(lam.shape, 2.0)])

    @pytest.mark.parametrize("t_len", [1, 2, 50, 200])
    def test_eigenvalue_rows_are_picked_by_index(self, t_len):
        # the half-angle row indexed by alpha < 0 carries the bits of np.where
        rng = np.random.default_rng(t_len)
        for alpha in (0.0, -0.0, 0.999, -0.999, 0.3, -0.3, np.array([0.0, -0.0, 0.999, -0.999]),
                      rng.uniform(-1, 1, 40), rng.uniform(-1, 1, (2, 3))):
            got, want = ma1_eigenvalues(alpha, t_len, 2), self.where_eigenvalues(alpha, t_len)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_scalar_alpha_leaves_the_cached_table_alone(self):
        # a scalar alpha indexes the cached table with a 0-d index, which
        # would give a view that the eigenvalues are then scaled in
        import minscore.models as models

        table = models._half_angles(7)
        before = table.copy()
        for alpha in (-0.4, 0.4, -0.0):
            lam = ma1_eigenvalues(alpha, 7)
            assert not np.shares_memory(lam, table)
        assert not table.flags.writeable and table.tobytes() == before.tobytes()

    def test_eigenvalue_derivatives(self):
        jet = ma1_eigenvalues(0.7, 9, order=2)
        h = 1e-6
        fd = (ma1_eigenvalues(0.7 + h, 9)[0] - ma1_eigenvalues(0.7 - h, 9)[0]) / (2 * h)
        npt.assert_allclose(jet[1], fd, atol=1e-8)
        npt.assert_array_equal(jet[2], 2.0)
