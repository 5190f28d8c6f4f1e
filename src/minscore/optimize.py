"""Bounded scalar minimization of many objectives at once.

The objectives of a study's replicates differ only in their data, so they are
minimized together as *lanes* (:class:`Lanes`): every lane is
``pooled . coef(theta) + rows * const(theta)`` with its own pooled statistics
and row count and one shared jet function for ``coef`` and ``const``.  A
term free of theta cannot move a minimizer, so no lane carries one.  A
coarse grid of :data:`GRID_POINTS` seeds, scanned for all lanes together in
blocks of at most :data:`GRID_FLOATS` floats of jets and of products, guards
against the mild multimodality of the MA(1) objectives at large coefficient
values; safeguarded Newton steps on the exact first and second
derivatives then refine the best grid basin of every lane together
(``rtsafe``, Press et al., *Numerical Recipes* 9.4).

A lane's arithmetic does not depend on which other lanes share its call:
every value and derivative is a product summed along the statistics axis,
never a matrix product whose summation order could change with the number of
lanes.  So one objective minimized alone gives the same bits as inside a
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Lanes", "MinimizationError", "minimize_lanes"]

GRID_POINTS = 64  # interior grid seeds of every minimization
MAX_STEPS = 100  # Newton or bisection steps per lane; bisection alone needs about 55
# jets, and products, held at once by the grid scan (64 KB each, cache-sized):
# it takes at most GRID_FLOATS // m grid points a call and the lanes whose
# products at them fit, but never less than one point and one lane
GRID_FLOATS = 2**13
_STOP = 1e-13  # a lane stops at |g| <= _STOP * |h|, a Newton step below 1e-13


class MinimizationError(RuntimeError):
    """The objective could not be minimized on the requested interval."""


@dataclass(frozen=True)
class Lanes:
    """R scalar objectives of theta that share their parameter dependence.

    ``terms(theta, order)`` returns the jets ``(coef, const)`` at an array
    ``theta``: ``coef`` of shape ``(order + 1, *theta.shape, m)`` and
    ``const`` of shape ``(order + 1, *theta.shape)``, row r the r-th
    derivative.  Lane i then has r-th derivative
    ``pooled[i] . coef[r] + rows[i] * const[r]``.
    """

    terms: Callable
    pooled: np.ndarray  # (R, m)
    rows: np.ndarray  # (R,)


def minimize_lanes(lanes: Lanes, lo: float, hi: float) -> np.ndarray:
    """Minimize every lane on the open interval (lo, hi); returns the (R,)
    minimizers, NaN for a lane that is non-finite at every grid seed.

    The grid seeds are scanned for all lanes, in one call of ``terms`` for
    m <= 128 statistics and in chunks of ``GRID_FLOATS // m`` seeds beyond
    (:data:`GRID_FLOATS`); a seed's value has the same bits in any chunk.  Each
    lane then starts at its best seed x_b and keeps the bracket
    [x_{b-1}, x_{b+1}] (the interval's ends for the outer seeds), which the
    sign of its gradient narrows.  A lane takes the Newton step
    ``theta - g/h`` where it stays strictly inside the bracket with h > 0, and
    bisects the bracket otherwise; a point where the value or a derivative is
    not finite ends the bracket on its side of the last finite iterate, which
    the lane keeps.  A lane stops once ``|g| <= 1e-13 |h|`` (so a lane with g
    exactly 0 keeps its theta), once a step no longer moves it, or after
    :data:`MAX_STEPS` steps, and returns its last finite iterate; one that
    ends above its best grid value, or has no finite iterate, returns that
    seed.  For a unimodal objective the result is the stationary point to
    rounding; for a multimodal one it is a local minimizer of the best grid
    basin.

    Raises ``ValueError`` for a non-finite or empty interval, or when
    ``terms`` does not return the grid's jet shapes.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got ({lo}, {hi})")
    xs = np.linspace(lo, hi, GRID_POINTS + 2)[1:-1]
    n_lanes, width = lanes.pooled.shape
    # (R, GRID_POINTS) values, a chunk of grid points and of lanes at a time
    points = min(GRID_POINTS, max(1, GRID_FLOATS // width))
    chunk = max(1, GRID_FLOATS // (points * width))
    fs = np.empty((n_lanes, GRID_POINTS))
    for p in range(0, GRID_POINTS, points):
        _scan(lanes, xs[p:p + points], chunk, fs[:, p:p + points])
    fs[~np.isfinite(fs)] = np.inf
    best = np.argmin(fs, axis=1)
    best_value = fs[np.arange(n_lanes), best]
    ok = np.isfinite(best_value)
    left = np.where(best > 0, xs[best - 1], lo)
    right = np.where(best < GRID_POINTS - 1, xs[np.minimum(best + 1, GRID_POINTS - 1)], hi)
    theta = np.where(ok, xs[best], np.nan)
    value = np.full(n_lanes, np.nan)

    # the lanes still stepping, their iterates and brackets
    index = np.flatnonzero(ok)
    x, lft, rgt = theta[index], left[index], right[index]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_STEPS):
            if not index.size:
                break
            c, k = lanes.terms(x, 2)
            f, g, h = _lane_jets(lanes.pooled[index], lanes.rows[index], c, k)
            finite = np.isfinite(f) & np.isfinite(g) & np.isfinite(h)
            # a finite point is the lane's new iterate and the sign of g
            # narrows its bracket; a non-finite one ends the bracket on its
            # side of the last finite iterate
            side = np.where(finite, g, x - theta[index])
            lft = np.where(side < 0, x, lft)
            rgt = np.where(side > 0, x, rgt)
            at = index[finite]
            theta[at], value[at] = x[finite], f[finite]
            newton = x - g / h
            nxt = np.where(finite & (h > 0) & (lft < newton) & (newton < rgt), newton,
                           0.5 * (lft + rgt))
            going = (~finite | (np.abs(g) > _STOP * np.abs(h))) & (nxt != x)
            index, x, lft, rgt = index[going], nxt[going], lft[going], rgt[going]

    # the grid guard: a lane that ends above its best seed, or has no finite
    # iterate, returns the seed
    back = ok & ~(value <= best_value)
    theta[back] = xs[best[back]]
    return theta


def _scan(lanes: Lanes, seeds, chunk: int, out) -> None:
    # the values of every lane at the grid seeds into ``out``, ``chunk`` lanes
    # at a time; the seeds' jets are freed before the next seeds' are taken
    coef, const = lanes.terms(seeds, 0)
    shape = (len(seeds), lanes.pooled.shape[1])
    if np.shape(const)[1:] != shape[:1]:
        raise ValueError(f"terms must be vectorized over theta: expected shape "
                         f"{shape[:1]}, got {np.shape(const)[1:]}")
    if np.shape(coef)[1:] != shape:
        raise ValueError(f"terms must be vectorized over theta: expected shape "
                         f"{shape}, got {np.shape(coef)[1:]}")
    for i in range(0, len(out), chunk):
        block = slice(i, i + chunk), None  # each lane at every seed
        out[i:i + chunk] = _lane_jets(lanes.pooled[block], lanes.rows[block], coef[0], const[0])


def _lane_jets(pooled, rows, coef, const):
    # pooled . coef + rows * const, the one formula of every lane's value and
    # derivatives (and of SeriesObjective.total and a fit's K): a product
    # summed along the statistics axis, in one order whatever the number of lanes
    return np.sum(pooled * coef, axis=-1) + rows * const
