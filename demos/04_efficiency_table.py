"""A small end-to-end efficiency study.

Runs the replicated harness on a three-point grid for each model (reduced
sizes so the demo finishes in under a minute), prints the table rows, and
writes the CSV plus an SVG efficiency chart next to this script.

The headline effect: pairwise likelihood stays efficient for AR(1) but
collapses for MA(1) at large coefficients, where score matching holds up.
"""

from pathlib import Path

from minscore import ExperimentConfig, emit_are_svg, emit_csv, run_experiment

HERE = Path(__file__).parent

for model in ("ar1", "ma1"):
    cfg = ExperimentConfig(
        model=model,
        param_grid=(-0.8, 0.0, 0.8),
        nu=100,
        t_len=30,
        replicates=40,
        seed=2024,
    )
    rows = run_experiment(cfg)
    print(f"\n{model}: param  estimator     mean_est  mean_sd   ARE")
    for row in rows:
        print(f"  {row.param_true:+.1f}  {row.estimator.value:12s}"
              f" {row.mean_est:+.4f}  {row.mean_sd:.4f}  {row.are:.3f}")
    csv_path = HERE / f"efficiency_{model}.csv"
    svg_path = HERE / f"efficiency_{model}.svg"
    emit_csv(rows, csv_path)
    emit_are_svg(rows, svg_path)
    print(f"wrote {csv_path.name} and {svg_path.name}")
