"""CSV and SVG output for simulation results.

The CSV schema is fixed: header
``model,param_true,estimator,mean_est,mean_sd,are,n_replicates,n_boundary,nu,t_len,seed``
with floats printed to 6 significant digits and rows sorted by
(model, param_true, estimator).  The SVG chart draws one efficiency polyline
per estimator, omitting the full-ML baseline (constant 1 by construction).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .scores import EstimatorKind
from .simulate import ReportRow, format_float as _fmt

__all__ = ["CSV_HEADER", "emit_csv", "emit_are_svg"]

CSV_HEADER = "model,param_true,estimator,mean_est,mean_sd,are,n_replicates,n_boundary,nu,t_len,seed"

_COLORS = {
    EstimatorKind.PAIRWISE_ML: "#d62728",
    EstimatorKind.HYV_UNIVARIATE: "#1f77b4",
    EstimatorKind.HYV_WISHART: "#2ca02c",
    EstimatorKind.FULL_ML: "#7f7f7f",
}

_ARE_MAX = 1.1


def _sorted_rows(rows) -> list[ReportRow]:
    return sorted(rows, key=lambda r: (r.model, r.param_true, r.estimator.value))


def emit_csv(rows, path: str) -> None:
    """Write report rows as UTF-8 CSV (header always present)."""
    lines = [CSV_HEADER]
    for row in _sorted_rows(rows):
        lines.append(
            ",".join(
                [
                    row.model,
                    _fmt(row.param_true),
                    row.estimator.value,
                    _fmt(row.mean_est),
                    _fmt(row.mean_sd),
                    _fmt(row.are),
                    str(row.n_replicates),
                    str(row.n_boundary),
                    str(row.nu),
                    str(row.t_len),
                    str(row.seed),
                ]
            )
        )
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def emit_are_svg(rows, path: str, width: int = 640, height: int = 420) -> None:
    """Write a standalone SVG line chart of relative efficiency vs parameter.

    Rows must come from a single model.  The efficiency axis is clamped to
    [0, 1.1]; the full-ML baseline is omitted.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to plot")
    models = {row.model for row in rows}
    if len(models) > 1:
        raise ValueError(f"rows span several models: {sorted(models)}")
    model = models.pop()

    series: OrderedDict[EstimatorKind, list[tuple[float, float]]] = OrderedDict()
    for row in _sorted_rows(rows):
        if row.estimator is EstimatorKind.FULL_ML:
            continue
        series.setdefault(row.estimator, []).append(
            (row.param_true, float(np.clip(row.are, 0.0, _ARE_MAX)))
        )
    if not series:
        raise ValueError("no non-baseline estimator rows to plot")

    margin_l, margin_r, margin_t, margin_b = 60, 130, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs = [x for pts in series.values() for x, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + (1.0 - y / _ARE_MAX) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_l}" y="24" font-family="sans-serif" font-size="15">'
        f"Relative efficiency vs parameter ({model})</text>",
    ]
    # axes
    x0, y0 = sx(x_lo), sy(0.0)
    parts.append(
        f'<line x1="{x0:.1f}" y1="{sy(_ARE_MAX):.1f}" x2="{x0:.1f}" y2="{y0:.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{sx(x_hi):.1f}" y2="{y0:.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in np.linspace(0.0, _ARE_MAX, 12):
        y = sy(tick)
        parts.append(
            f'<line x1="{x0 - 4:.1f}" y1="{y:.1f}" x2="{x0:.1f}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.1f}</text>'
        )
    n_xticks = min(9, max(2, len(sorted(set(xs)))))
    for tick in np.linspace(x_lo, x_hi, n_xticks):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0 + 4:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.2g}</text>'
        )
    # polylines + legend
    legend_y = margin_t + 10
    for kind, pts in series.items():
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = _COLORS[kind]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{coords}"/>'
        )
        lx = width - margin_r + 10
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">{kind.value}</text>'
        )
        legend_y += 20
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path!r}: {exc}") from exc
