"""Bounded scalar minimization.

The minimizer seeds a bounded Brent refinement with a coarse grid scan; the
grid guards against the mild multimodality of the MA(1) objectives at large
coefficient values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["MinimizationError", "minimize_scalar"]

_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


class MinimizationError(RuntimeError):
    """The objective could not be minimized on the requested interval."""


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
    grid_points: int = 64,
) -> float:
    """Minimize a scalar function on the open interval (lo, hi).

    Evaluates ``f`` on ``grid_points`` interior seeds, then refines the best
    basin with bounded Brent search to absolute tolerance ``tol``.  For a
    unimodal objective the result is within ``tol`` of the minimizer; for a
    multimodal one it is a local minimizer of the best grid basin.

    Raises :class:`MinimizationError` if ``f`` is non-finite at every seed.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got ({lo}, {hi})")
    xs = np.linspace(lo, hi, grid_points + 2)[1:-1]
    fs = np.array([f(x) for x in xs], dtype=float)
    finite = np.isfinite(fs)
    if not finite.any():
        raise MinimizationError("objective is non-finite at every grid seed")
    fs = np.where(finite, fs, np.inf)
    best = int(np.argmin(fs))
    left = xs[best - 1] if best > 0 else lo
    right = xs[best + 1] if best < len(xs) - 1 else hi
    x_star, f_star = _bounded_brent(f, left, right, tol)
    if not np.isfinite(f_star) or f_star > fs[best]:
        return float(xs[best])
    return float(x_star)


def _bounded_brent(f, a, b, xatol: float, maxfun: int = 500):
    """Brent's minimizer on [a, b] (Forsythe, Malcolm & Moler's ``fmin``):
    golden-section steps, parabolic steps where they stay inside the bracket,
    stopping once the bracket around the best point is within ``xatol`` or
    after ``maxfun`` evaluations.  Returns the best point and its value.

    Step for step SciPy's ``minimize_scalar(method="bounded")``, in the same
    numpy scalar arithmetic, so the points passed to ``f`` and the point
    returned are the same to the bit.
    """
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = f(xf)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > tol2 - 0.5 * (b - a) and num < maxfun:
        golden = True
        if np.abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (np.sign(xm - xf) + (xm - xf == 0))
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x)
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
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx
