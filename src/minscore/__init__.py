"""Minimum-score estimation for stationary AR(1)/MA(1) Gaussian series.

Four estimators of the scalar dependence parameter share one interface: full
maximum likelihood, consecutive-pairwise likelihood, univariate Hyvarinen
score matching, and Hyvarinen score matching on the Wishart law of the pooled
sum-of-squares matrix.  Standard errors come from Godambe (sandwich)
information, and a replicated simulation harness compares the estimators'
asymptotic relative efficiency across the parameter range.
"""

from .models import (
    Ar1Params,
    Ma1Params,
    ar1_covariance,
    ar1_precision,
    ma1_covariance,
    ma1_eigenvalues,
    ma1_precision,
    ma1_sine_transform,
    params_for,
    sample_ar1,
    sample_ma1,
    sample_series,
    sum_of_squares,
)
from .optimize import MinimizationError, minimize_lanes
from .scores import (
    DegenerateDataError,
    EstimatorKind,
    ar1_full_loglik,
    ar1_hyvarinen,
    ar1_pairwise_closed_form,
    ar1_pairwise_loglik,
    gaussian_hyvarinen,
    ma1_full_loglik,
    ma1_hyvarinen,
    ma1_pairwise_loglik,
    objective_lanes,
    score_per_series,
    series_objective,
)
from .wishart import (
    hw_grad_samples,
    precision_derivative,
    wishart_components,
    wishart_context,
)
from .inference import (
    EstimateRecord,
    GodambeComponents,
    SeriesReduction,
    are,
    check_sample_size,
    fit,
    fit_lanes,
    godambe_empirical,
    sample_size_error,
)
from .simulate import ConfigError, ExperimentConfig, ReportRow, run_experiment
from .report import CSV_HEADER, emit_are_svg, emit_csv

__version__ = "0.1.0"

__all__ = [
    "Ar1Params",
    "Ma1Params",
    "ar1_covariance",
    "ar1_precision",
    "ma1_covariance",
    "ma1_eigenvalues",
    "ma1_precision",
    "ma1_sine_transform",
    "params_for",
    "sample_ar1",
    "sample_ma1",
    "sample_series",
    "sum_of_squares",
    "MinimizationError",
    "minimize_lanes",
    "DegenerateDataError",
    "EstimatorKind",
    "ar1_full_loglik",
    "ar1_hyvarinen",
    "ar1_pairwise_closed_form",
    "ar1_pairwise_loglik",
    "gaussian_hyvarinen",
    "ma1_full_loglik",
    "ma1_hyvarinen",
    "ma1_pairwise_loglik",
    "objective_lanes",
    "score_per_series",
    "series_objective",
    "hw_grad_samples",
    "precision_derivative",
    "wishart_components",
    "wishart_context",
    "EstimateRecord",
    "GodambeComponents",
    "SeriesReduction",
    "are",
    "check_sample_size",
    "fit",
    "fit_lanes",
    "godambe_empirical",
    "sample_size_error",
    "ConfigError",
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "CSV_HEADER",
    "emit_are_svg",
    "emit_csv",
]
