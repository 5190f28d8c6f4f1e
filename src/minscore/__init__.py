"""Minimum-score estimation for stationary AR(1)/MA(1) Gaussian series.

Four estimators of the scalar dependence parameter share one interface: full
maximum likelihood, consecutive-pairwise likelihood, univariate Hyvarinen
score matching, and Hyvarinen score matching on the Wishart law of the pooled
sum-of-squares matrix.  Standard errors come from Godambe (sandwich)
information, and a replicated simulation harness compares the estimators'
asymptotic relative efficiency across the parameter range.  The dense
matrices and closed forms that check them are in :mod:`minscore.selfcheck`,
which this package does not import.
"""

from .models import (
    ma1_eigenvalues,
    ma1_sine_transform,
    sample_ar1,
    sample_ma1,
    sample_series,
    sum_of_squares,
)
from .optimize import MinimizationError, minimize_lanes
from .scores import (DegenerateDataError, EstimatorKind, objective_lanes, series_objective,
                     wishart_context)
from .wishart import wishart_components
from .inference import (
    EstimateRecord,
    SeriesReduction,
    are,
    fit,
    fit_lanes,
    sample_size_error,
)
from .simulate import ConfigError, ExperimentConfig, ReportRow, run_experiment
from .report import CSV_HEADER, emit_are_svg, emit_csv

__version__ = "0.1.0"

__all__ = [
    "ma1_eigenvalues",
    "ma1_sine_transform",
    "sample_ar1",
    "sample_ma1",
    "sample_series",
    "sum_of_squares",
    "MinimizationError",
    "minimize_lanes",
    "DegenerateDataError",
    "EstimatorKind",
    "objective_lanes",
    "series_objective",
    "wishart_components",
    "wishart_context",
    "EstimateRecord",
    "SeriesReduction",
    "are",
    "fit",
    "fit_lanes",
    "sample_size_error",
    "ConfigError",
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "CSV_HEADER",
    "emit_are_svg",
    "emit_csv",
]
