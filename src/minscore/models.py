"""Stationary AR(1) and MA(1) models at unit innovation variance and mean 0:
the MA(1) spectrum, derivative jets and replicated-series sampling.

The one parameter is the dependence parameter theta (phi or alpha).  Samplers
are pure functions of ``(theta, seed)``, so a study's replicate draws the same
series whichever replicates are sampled, reduced and fitted with it.

Every MA(1) covariance of length T is tridiagonal Toeplitz, so one fixed
orthogonal basis, the DST-I sine basis, diagonalizes all of them; only the
eigenvalues (:func:`ma1_eigenvalues`) depend on alpha.  Data are rotated into
it (:func:`ma1_sine_transform`) by a cached T x T matrix when it fits in
``BASIS_FLOATS`` (T <= 256) or the data hold at least T^2 floats, and by an
FFT otherwise.  The objectives built on these carry their parameter
dependence as *jets*: arrays whose leading axis holds
a value and its first and second derivatives in the dependence parameter,
combined by the private ``_jet_*`` helpers here, so the estimators get exact
derivatives without finite differences.  The jets of an array of parameter
values carry its shape after that leading axis, so one call covers a grid.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

__all__ = [
    "ma1_sine_transform",
    "ma1_eigenvalues",
    "sample_ar1",
    "sample_ma1",
    "sample_series",
    "sum_of_squares",
    "canonical_model",
]

MODELS = ("ar1", "ma1")

BASIS_FLOATS = 2**16  # a DST-I basis up to 512 KB (T <= 256) is used for any input size


def canonical_model(model: str) -> str:
    """Normalize a model tag to 'ar1' or 'ma1'."""
    name = str(model).strip().lower()
    if name not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return name


def _check_size(value, minimum: int | None, name: str = "series length") -> int:
    # a number of time points or series, never truncated from a float nor
    # read from a bool (an Integral, True counting 1); no floor if minimum is None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(x, name: str) -> np.ndarray:
    # x as floats; complex input fails, naming its dtype, where a float
    # conversion would drop the imaginary part with only a ComplexWarning
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got dtype {x.dtype}")
    return np.asarray(x, dtype=float)


@functools.lru_cache(maxsize=16)
def _half_angles(t_len: int) -> np.ndarray:
    # rows cos^2 and sin^2 of the half angles k pi / (2 (T + 1)), k = 1..T,
    # read-only; cos^2 is sin^2 reversed, so neither row cancels
    k = np.arange(1, t_len + 1)
    s2 = np.sin(k * (np.pi / (2 * (t_len + 1)))) ** 2
    table = np.stack([s2[::-1], s2])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _sine_basis(t_len: int) -> np.ndarray:
    # U of ma1_sine_transform, read-only as every caller shares it; jk is
    # reduced mod 2(T+1) in integers, which keeps U orthogonal to rounding and
    # lets a table of 2T + 2 sines fill all T^2 entries
    table = np.sqrt(2.0 / (t_len + 1)) * np.sin(np.arange(2 * t_len + 2) * (np.pi / (t_len + 1)))
    k = np.arange(1, t_len + 1)
    jk = np.outer(k, k)
    jk %= 2 * t_len + 2
    u = table[jk]
    u.flags.writeable = False
    return u


def ma1_sine_transform(x) -> np.ndarray:
    """Orthonormal DST-I of ``x`` along its last axis, of length T: ``x @ U``
    with ``U[j, k] = sqrt(2/(T+1)) sin(jk pi/(T+1))``, j, k = 1..T.

    ``U`` is symmetric and orthogonal and diagonalizes every MA(1) covariance
    of length T: ``Omega = U diag(lambda) U`` with ``lambda`` from
    :func:`ma1_eigenvalues`.  ``x`` is multiplied by a cached ``U`` when ``U``
    fits in ``BASIS_FLOATS`` floats (T <= 256), so there a series takes the
    same route alone and in any stack (the BLAS kernels of one row and of a
    stack may differ by rounding); a longer series takes ``U`` only when
    ``x`` holds at least T^2 floats, else the FFT of the odd extension,
    O(T log T) per row.  Complex input raises ``ValueError``.
    """
    x = _real(x, "x")
    t_len = _check_size(x.shape[-1], 1)
    if t_len * t_len <= max(x.size, BASIS_FLOATS):
        return x @ _sine_basis(t_len)
    odd = np.zeros(x.shape[:-1] + (2 * (t_len + 1),))
    odd[..., 1 : t_len + 1] = x
    odd[..., t_len + 2 :] = -x[..., ::-1]
    # the odd extension's DFT is -2i sum_j x_j sin(jk pi/(T+1))
    return np.fft.rfft(odd)[..., 1 : t_len + 1].imag * -np.sqrt(0.5 / (t_len + 1))


def ma1_eigenvalues(alpha, t_len: int, order: int = 0) -> np.ndarray:
    """Jet (``order + 1`` rows) of the unit-variance MA(1) covariance
    eigenvalues ``lambda_k = 1 + alpha^2 + 2 alpha cos(k pi/(T+1))``: shape
    ``(order + 1, *alpha.shape, T)`` for a scalar or array ``alpha``.

    Each eigenvalue is summed from non-negative terms,
    ``(1 - |alpha|)^2 + 4 |alpha| sin^2`` or ``cos^2`` of the half angle, so
    nothing cancels as ``|alpha| -> 1``.  Derivatives in alpha:
    ``2 (alpha + cos(k pi/(T+1)))`` and 2.
    """
    table = _half_angles(_check_size(t_len, 1))
    c2, s2 = table
    # the eigenvalue axis goes last; a scalar alpha takes the array path, so
    # it gets the bits of the same alpha inside an array
    alpha = np.asarray(alpha, dtype=float)[..., None]
    a = np.abs(alpha)
    gap = 1.0 - a
    # (1 - |alpha|)^2 + 4 |alpha| half, built in the one array it returns: the
    # row of sin^2 for alpha < 0, else of cos^2, taken by index (a copy even
    # for a scalar alpha, whose 0-d index would otherwise give a view)
    lam = np.take(table, (alpha[..., 0] < 0).astype(np.intp), axis=0)
    lam *= 4.0 * a
    lam += gap * gap
    rows = [lam]
    if order >= 1:
        rows.append(2.0 * (alpha + (c2 - s2)))
    if order >= 2:
        rows.append(np.full(rows[0].shape, 2.0))
    return _stack(rows)


def _stack(rows: list) -> np.ndarray:
    # the jet of its rows; a one-row jet is a view, not a copy
    return rows[0][None] if len(rows) == 1 else np.array(rows)


_POWERS = np.arange(5)  # the powers 0..4 of every polynomial jet


def _power_jets(x, order: int) -> np.ndarray:
    """``(order + 1, *x.shape, 5)`` array for a scalar or array x: row r
    holds ``d^r/dx^r x**j`` for j = 0..4, so ``_power_jets(x, r) @ c`` is
    the jet of the quartic with coefficients ``c`` (lowest power first)."""
    x = np.asarray(x, dtype=float)[..., None]
    j = _POWERS
    rows = [x ** j]
    if order >= 1:
        rows.append(j * x ** np.maximum(j - 1, 0))
    if order >= 2:
        rows.append(j * (j - 1) * x ** np.maximum(j - 2, 0))
    return _stack(rows)


def _jet_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet of the product of two jets (Leibniz rule)."""
    rows = [a[0] * b[0]]
    if len(a) > 1:
        rows.append(a[1] * b[0] + a[0] * b[1])
    if len(a) > 2:
        rows.append(a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])
    return _stack(rows)


def _chain(x: np.ndarray, f: list) -> np.ndarray:
    # jet of g(x) from the jet x and f[r] = g^(r)(x[0])
    rows = [f[0]]
    if len(x) > 1:
        rows.append(f[1] * x[1])
    if len(x) > 2:
        rows.append(f[2] * x[1] ** 2 + f[1] * x[2])
    return _stack(rows)


def _jet_power(x: np.ndarray, p: int) -> np.ndarray:
    """Jet of ``x**p`` for a jet ``x``."""
    x0 = x[0]
    f = [x0**p]
    if len(x) > 1:
        f.append(p * x0 ** (p - 1))
    if len(x) > 2:
        f.append(p * (p - 1) * x0 ** (p - 2))
    return _chain(x, f)


def _jet_log(x: np.ndarray) -> np.ndarray:
    """Jet of ``log(x)`` for a positive jet ``x``."""
    x0 = x[0]
    f = [np.log(x0)]
    if len(x) > 1:
        f.append(1.0 / x0)
    if len(x) > 2:
        f.append(-f[1] ** 2)
    return _chain(x, f)


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def sample_ar1(phi: float, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample ``nu`` independent stationary AR(1) paths of length ``t_len``.

    The first observation is drawn from the stationary law N(0, 1 / (1 - phi**2));
    subsequent values follow ``y[t] = phi * y[t-1] + z[t]`` with N(0, 1)
    innovations.  Output is a (nu, t_len) array, identical for identical seeds.
    """
    phi = float(phi)
    if not abs(phi) < 1:
        raise ValueError(f"stationarity requires |phi| < 1, got {phi}")
    nu, t_len = _check_size(nu, 1, "nu"), _check_size(t_len, 1)
    y = _generator(seed).standard_normal((nu, t_len))
    y[:, 0] /= np.sqrt(1.0 - phi**2)
    # the recursion over the column views, in place, one product buffer
    scratch = np.empty(nu)
    columns = list(y.T)
    for prev, column in zip(columns, columns[1:]):
        np.multiply(prev, phi, out=scratch)
        np.add(column, scratch, out=column)
    return y


def sample_ma1(alpha: float, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample ``nu`` independent MA(1) paths: ``y[t] = alpha*z[t-1] + z[t]``
    with ``t_len + 1`` iid N(0, 1) innovations per path."""
    alpha = float(alpha)
    if not abs(alpha) < 1:
        raise ValueError(f"invertibility requires |alpha| < 1, got {alpha}")
    nu, t_len = _check_size(nu, 1, "nu"), _check_size(t_len, 1)
    z = _generator(seed).standard_normal((nu, t_len + 1))
    y = alpha * z[:, :-1]
    y += z[:, 1:]
    return y


def sample_series(model: str, theta: float, nu: int, t_len: int, seed) -> np.ndarray:
    """Sample from either model at dependence parameter ``theta``."""
    sampler = sample_ar1 if canonical_model(model) == "ar1" else sample_ma1
    return sampler(theta, nu, t_len, seed)


def sum_of_squares(series: np.ndarray) -> np.ndarray:
    """Sum-of-squares-and-products matrix S = Y'Y of a (nu, T) series matrix,
    exactly symmetric: numpy forms one triangle and mirrors it (BLAS syrk) for
    an aligned y with a unit stride, so other layouts are copied first.
    Complex input raises ``ValueError``."""
    y = np.atleast_2d(_real(series, "series"))
    if not y.flags.aligned or y.itemsize not in y.strides:
        y = y.copy()
    return y.T @ y
