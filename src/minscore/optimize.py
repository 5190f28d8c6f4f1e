"""Bounded scalar minimization.

The minimizer seeds a bounded Brent refinement with a coarse grid scan; the
grid guards against the mild multimodality of the MA(1) objectives at large
coefficient values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import optimize as sp_optimize

__all__ = ["MinimizationError", "minimize_scalar"]


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
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    xs = np.linspace(lo, hi, grid_points + 2)[1:-1]
    fs = np.array([f(x) for x in xs], dtype=float)
    finite = np.isfinite(fs)
    if not finite.any():
        raise MinimizationError("objective is non-finite at every grid seed")
    fs = np.where(finite, fs, np.inf)
    best = int(np.argmin(fs))
    left = xs[best - 1] if best > 0 else lo
    right = xs[best + 1] if best < len(xs) - 1 else hi
    result = sp_optimize.minimize_scalar(
        f, bounds=(left, right), method="bounded", options={"xatol": tol}
    )
    x_star = float(result.x)
    f_star = f(x_star)
    if not np.isfinite(f_star) or f_star > fs[best]:
        return float(xs[best])
    return x_star
