"""Bounded scalar minimization.

The minimizer seeds a bounded Brent refinement with a coarse grid scan; the
grid guards against the mild multimodality of the MA(1) objectives at large
coefficient values.  The objective evaluates the whole grid in one call, so
a fit pays the per-call overhead of its objective once for the grid, not once
per seed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["MinimizationError", "minimize_scalar"]

GRID_POINTS = 64  # interior grid seeds of every minimization
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


class MinimizationError(RuntimeError):
    """The objective could not be minimized on the requested interval."""


def minimize_scalar(f: Callable, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Minimize a scalar function on the open interval (lo, hi).

    ``f`` is called once with the array of :data:`GRID_POINTS` interior
    seeds and must return one value per seed, then with floats only, as
    bounded Brent search refines the best basin to absolute tolerance
    ``tol``.  For a unimodal objective the result is within ``tol`` of the
    minimizer; for a multimodal one it is a local minimizer of the best grid
    basin.

    Raises ``ValueError`` if ``f`` does not return an array of the seeds'
    shape (a scalar-only callable would otherwise scan a flat grid), and
    :class:`MinimizationError` if ``f`` is non-finite at every seed.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got ({lo}, {hi})")
    xs = np.linspace(lo, hi, GRID_POINTS + 2)[1:-1]
    fs = np.asarray(f(xs), dtype=float)
    if fs.shape != xs.shape:
        raise ValueError(
            f"the objective must return one value per grid seed: expected shape "
            f"{xs.shape}, got {fs.shape}"
        )
    finite = np.isfinite(fs)
    if not finite.any():
        raise MinimizationError("objective is non-finite at every grid seed")
    fs = np.where(finite, fs, np.inf)
    best = int(np.argmin(fs))
    left = xs[best - 1] if best > 0 else lo
    right = xs[best + 1] if best < len(xs) - 1 else hi
    x_star, f_star = _bounded_brent(f, left, right, tol)
    if not math.isfinite(f_star) or f_star > fs[best]:
        return float(xs[best])
    return float(x_star)


def _bounded_brent(f, a, b, xatol: float, maxfun: int = 500):
    """Brent's minimizer on [a, b] (Forsythe, Malcolm & Moler's ``fmin``):
    golden-section steps, parabolic steps where they stay inside the bracket,
    stopping once the bracket around the best point is within ``xatol`` or
    after ``maxfun`` evaluations.  Returns the best point and its value.

    Step for step SciPy's ``minimize_scalar(method="bounded")``.  The
    bookkeeping runs on Python floats, whose +, -, *, /, abs and comparisons
    are the same IEEE operations as SciPy's numpy scalars, so the points
    passed to ``f`` and the point returned are the same to the bit.  Each
    value of ``f`` is taken as a float, so ``f`` may return a numpy scalar or
    a 0-d array.
    """
    a, b, xatol = float(a), float(b), float(xatol)
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = float(f(xf))
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < maxfun:
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # |p| < |q r / 2| implies q != 0, so the division cannot raise
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # a step of at least tol1, in the direction of rat (forward for 0)
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx
