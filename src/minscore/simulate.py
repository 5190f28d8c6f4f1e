"""Replicated simulation driver.

For each dependence-parameter value in the grid, the driver simulates
``replicates`` independent datasets of ``nu`` series of length ``t_len``,
fits every requested estimator plus the full-likelihood baseline to each,
and aggregates mean estimates and mean asymptotic sds.  Relative efficiency
is computed from the aggregated mean sds with full ML as the baseline.

Replicates use independently derived seeds, so worker threads never change
results; aggregation happens in replicate order.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .inference import EstimateRecord, fit
from .models import canonical_model, sample_series
from .scores import EstimatorKind, min_series_length

__all__ = ["ExperimentConfig", "ReportRow", "ConfigError", "run_experiment"]

ALL_ESTIMATORS = (
    EstimatorKind.FULL_ML,
    EstimatorKind.PAIRWISE_ML,
    EstimatorKind.HYV_UNIVARIATE,
    EstimatorKind.HYV_WISHART,
)

MAX_FAILURE_FRACTION = 0.10


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


@dataclass
class ExperimentConfig:
    """Settings for one simulation study (one model, a grid of true values)."""

    model: str
    param_grid: tuple[float, ...]
    nu: int = 200
    t_len: int = 50
    replicates: int = 200
    mc_b: int = 500
    seed: int = 0
    estimators: tuple[EstimatorKind, ...] = ALL_ESTIMATORS
    out_path: str | None = None

    def __post_init__(self):
        self.model = canonical_model(self.model)
        self.param_grid = tuple(float(v) for v in self.param_grid)
        self.estimators = tuple(EstimatorKind(e) for e in self.estimators)

    def validate(self) -> None:
        if not self.param_grid:
            raise ConfigError("param_grid must contain at least one value")
        for value in self.param_grid:
            if not -1.0 < value < 1.0:
                raise ConfigError(f"grid value {value} is outside the open interval (-1, 1)")
        if self.nu < 1 or self.t_len < 1:
            raise ConfigError(f"nu and t must be positive, got nu={self.nu}, t={self.t_len}")
        for kind in _fit_kinds(self):
            need = min_series_length(kind, self.model)
            if self.t_len < need:
                raise ConfigError(
                    f"the {kind} estimator on {self.model} needs t >= {need}, got t={self.t_len}"
                )
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.mc_b < 1:
            raise ConfigError(f"mc-b must be positive, got {self.mc_b}")
        if EstimatorKind.HYV_WISHART in self.estimators:
            # mc-b no longer sets any table output (the Wishart sd is exact);
            # its bounds are kept so that existing configurations validate as before
            if self.mc_b < 50:
                raise ConfigError(
                    f"mc-b must be >= 50 when hyv-wishart is requested, got {self.mc_b}"
                )
            # the exact Wishart sd is finite only from T + 4 series on
            if self.nu < self.t_len + 4:
                raise ConfigError(
                    f"the Wishart sd needs nu >= t + 4; got nu={self.nu}, t={self.t_len}"
                )
        if not self.estimators:
            raise ConfigError("at least one estimator must be requested")


@dataclass(frozen=True)
class ReportRow:
    """One aggregated table cell group: model x true value x estimator."""

    model: str
    param_true: float
    estimator: EstimatorKind
    mean_est: float
    mean_sd: float
    are: float
    n_replicates: int
    n_boundary: int
    nu: int
    t_len: int
    seed: int


@dataclass
class _CellStats:
    """Per-estimator accumulation across replicates of one grid point."""

    estimates: list = field(default_factory=list)
    sds: list = field(default_factory=list)
    n_boundary: int = 0
    n_total: int = 0

    def add(self, record: EstimateRecord) -> None:
        self.n_total += 1
        if record.boundary_flag:
            self.n_boundary += 1
            return
        self.estimates.append(record.estimate)
        self.sds.append(record.sd)


def _fit_kinds(cfg: ExperimentConfig) -> tuple[EstimatorKind, ...]:
    # Full ML is always fitted as the efficiency baseline.
    kinds = [EstimatorKind.FULL_ML]
    kinds.extend(k for k in ALL_ESTIMATORS if k in cfg.estimators and k not in kinds)
    return tuple(kinds)


def _one_replicate(cfg, theta0, grid_index, rep_index, kinds):
    root = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(grid_index, rep_index))
    # the data come from the first spawned child, as in the reference tables
    (sample_seed,) = root.spawn(1)
    y = sample_series(cfg.model, theta0, cfg.nu, cfg.t_len, sample_seed)
    return {kind: fit(y, kind, cfg.model) for kind in kinds}


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    return_details: bool = False,
):
    """Run the full study; returns one report row per grid value x estimator.

    Individual replicate failures are tolerated up to 10% per grid point, each
    grid point with failures emitting one ``RuntimeWarning``; beyond that the
    study aborts.  Both messages give the failure count and the first message
    of each exception type, in replicate order.  With ``return_details=True``
    also returns the per-replicate estimates and sds keyed by (param,
    estimator), which the property checks use.
    """
    cfg.validate()
    kinds = _fit_kinds(cfg)
    rows: list[ReportRow] = []
    details: dict = {}
    for grid_index, theta0 in enumerate(cfg.param_grid):
        stats = {kind: _CellStats() for kind in kinds}
        failures = 0

        def replicate(rep_index, _theta0=theta0, _gi=grid_index):
            try:
                return _one_replicate(cfg, _theta0, _gi, rep_index, kinds)
            except Exception as exc:  # noqa: BLE001 - replicate isolation
                return exc

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(replicate, range(cfg.replicates)))
        else:
            outcomes = [replicate(r) for r in range(cfg.replicates)]

        first_causes: dict[str, str] = {}
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                failures += 1
                first_causes.setdefault(type(outcome).__name__, str(outcome))
                continue
            for kind in kinds:
                stats[kind].add(outcome[kind])
        if failures:
            causes = "".join(f"; first {name}: {text}" for name, text in first_causes.items())
            summary = (
                f"{failures}/{cfg.replicates} replicates failed at "
                f"{cfg.model} parameter {theta0}{causes}"
            )
            if failures > MAX_FAILURE_FRACTION * cfg.replicates:
                raise RuntimeError(summary)
            warnings.warn(summary, RuntimeWarning, stacklevel=2)

        cell_mle = stats[EstimatorKind.FULL_ML]
        if not cell_mle.sds:
            raise RuntimeError(f"no usable full-ML baseline at parameter {theta0}")
        sd_mle = float(np.mean(cell_mle.sds))
        for kind in kinds:
            cell = stats[kind]
            if not cell.estimates:
                raise RuntimeError(
                    f"estimator {kind} produced no usable replicates at parameter {theta0}"
                )
            mean_sd = float(np.mean(cell.sds))
            rows.append(
                ReportRow(
                    model=cfg.model,
                    param_true=theta0,
                    estimator=kind,
                    mean_est=float(np.mean(cell.estimates)),
                    mean_sd=mean_sd,
                    are=1.0 if kind is EstimatorKind.FULL_ML else (sd_mle / mean_sd) ** 2,
                    n_replicates=cell.n_total,
                    n_boundary=cell.n_boundary,
                    nu=cfg.nu,
                    t_len=cfg.t_len,
                    seed=cfg.seed,
                )
            )
            if return_details:
                details[(theta0, kind)] = (
                    np.array(cell.estimates),
                    np.array(cell.sds),
                )
    if return_details:
        return rows, details
    return rows
