"""Replicated simulation driver.

For each dependence-parameter value in the grid, the driver simulates
``replicates`` independent datasets of ``nu`` series of length ``t_len``,
fits every requested estimator plus the full-likelihood baseline to each,
and aggregates mean estimates and mean asymptotic sds.  Relative efficiency
is computed from the aggregated mean sds with full ML as the baseline.

Each replicate is sampled and reduced once to the sufficient statistics of
every fitted estimator (a :class:`~minscore.inference.SeriesReduction`, which
keeps no series); a replicate whose statistics fail (a singular S) fails
there.  Each estimator is then fitted to blocks of consecutive replicates at
once, as the lanes of one minimization
(:func:`~minscore.inference.fit_lanes`); a block spans grid points and holds
as many replicates as :data:`RETAINED_FLOATS` floats of statistics allow.
Replicates use independently derived seeds and the blocks depend on the
configuration only, so results are fixed by the configuration; everything
runs on the calling thread, and aggregation happens in replicate order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .inference import (
    EstimateRecord,
    SeriesReduction,
    are,
    fit_lanes,
    retained_floats,
    sample_size_error,
)
from .models import canonical_model, sample_series
from .scores import EstimatorKind

__all__ = ["ExperimentConfig", "ReportRow", "ConfigError", "run_experiment"]

ALL_ESTIMATORS = (
    EstimatorKind.FULL_ML,
    EstimatorKind.PAIRWISE_ML,
    EstimatorKind.HYV_UNIVARIATE,
    EstimatorKind.HYV_WISHART,
)

MAX_FAILURE_FRACTION = 0.10
RETAINED_FLOATS = 2**20  # statistics of one block of replicates fitted together


def format_float(value: float) -> str:
    """A float as the report prints it, to 6 significant digits."""
    return f"{value:.6g}"


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

    def __post_init__(self):
        self.model = canonical_model(self.model)
        self.param_grid = tuple(float(v) for v in self.param_grid)
        self.estimators = tuple(EstimatorKind(e) for e in self.estimators)

    def validate(self) -> None:
        if not self.param_grid:
            raise ConfigError("param_grid must contain at least one value")
        printed = set()
        for value in self.param_grid:
            if not -1.0 < value < 1.0:
                raise ConfigError(f"grid value {value} is outside the open interval (-1, 1)")
            # rows are told apart only by the printed param_true
            if format_float(value) in printed:
                raise ConfigError(
                    f"grid value {value} repeats {format_float(value)} at the report's "
                    "6 significant digits"
                )
            printed.add(format_float(value))
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mc_b < 1:
            raise ConfigError(f"mc-b must be positive, got {self.mc_b}")
        # mc-b no longer sets any table output (the Wishart sd is exact); its
        # bounds are kept so that existing configurations validate as before
        if EstimatorKind.HYV_WISHART in self.estimators and self.mc_b < 50:
            raise ConfigError(
                f"mc-b must be >= 50 when hyv-wishart is requested, got {self.mc_b}"
            )
        if not self.estimators:
            raise ConfigError("at least one estimator must be requested")
        # the bounds fit checks on data; t >= 2 for every estimator, so this
        # also rejects t < 1
        for kind in _fit_kinds(self):
            error = sample_size_error(kind, self.model, self.nu, self.t_len, t_name="t")
            if error is not None:
                raise ConfigError(error)


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


def _sample_replicate(cfg, theta0, grid_index, rep_index) -> np.ndarray:
    root = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(grid_index, rep_index))
    # the data come from the first spawned child, as in the reference tables
    (sample_seed,) = root.spawn(1)
    return sample_series(cfg.model, theta0, cfg.nu, cfg.t_len, sample_seed)


def _reduce_replicate(cfg, theta0, grid_index, rep_index, kinds) -> SeriesReduction:
    # one reduction for every kind: each family of statistics is computed
    # once, and only the statistics are kept
    return SeriesReduction(_sample_replicate(cfg, theta0, grid_index, rep_index), kinds,
                           cfg.model)


def _fit_block(cfg, kinds, reduced: list) -> list:
    # each replicate's records by kind, or the exception of its reduction or
    # of its first failing kind (kinds in order, as one replicate fitted alone)
    outcomes = list(reduced)
    records: list[dict] = [{} for _ in outcomes]
    for kind in kinds:
        live = [i for i, o in enumerate(outcomes) if not isinstance(o, Exception)]
        for i, record in zip(live, fit_lanes([outcomes[i] for i in live], kind)):
            if isinstance(record, Exception):
                outcomes[i] = record
            else:
                records[i][kind] = record
    return [o if isinstance(o, Exception) else r for o, r in zip(outcomes, records)]


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
    estimator), which the property checks use.  ``workers`` (>= 1) is accepted
    for compatibility and changes neither the output nor the speed: every
    study runs on the calling thread.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cfg.validate()
    kinds = _fit_kinds(cfg)
    jobs = [(theta0, grid_index, rep_index)
            for grid_index, theta0 in enumerate(cfg.param_grid)
            for rep_index in range(cfg.replicates)]
    per_block = max(1, RETAINED_FLOATS // retained_floats(kinds, cfg.model, cfg.nu, cfg.t_len))
    rows: list[ReportRow] = []
    details: dict = {}
    outcomes: list = []

    def reduce(job):
        try:
            return _reduce_replicate(cfg, *job, kinds)
        except Exception as exc:  # noqa: BLE001 - replicate isolation
            return exc

    done = 0  # grid points aggregated
    for start in range(0, len(jobs), per_block):
        reduced = [reduce(job) for job in jobs[start:start + per_block]]
        outcomes.extend(_fit_block(cfg, kinds, reduced))
        # aggregate every grid point whose replicates are all fitted
        while len(outcomes) >= (done + 1) * cfg.replicates:
            _aggregate(cfg, kinds, cfg.param_grid[done],
                       outcomes[done * cfg.replicates:(done + 1) * cfg.replicates],
                       rows, details if return_details else None)
            done += 1
    if return_details:
        return rows, details
    return rows


def _aggregate(cfg, kinds, theta0, outcomes, rows: list, details: dict | None) -> None:
    # the rows of one grid point from its replicates' outcomes, in order
    stats = {kind: _CellStats() for kind in kinds}
    failures = 0
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
        # stacklevel 3: the caller of run_experiment
        warnings.warn(summary, RuntimeWarning, stacklevel=3)

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
                are=are(sd_mle, mean_sd),
                n_replicates=cell.n_total,
                n_boundary=cell.n_boundary,
                nu=cfg.nu,
                t_len=cfg.t_len,
                seed=cfg.seed,
            )
        )
        if details is not None:
            details[(theta0, kind)] = (np.array(cell.estimates), np.array(cell.sds))
