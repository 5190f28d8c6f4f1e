"""Replicated simulation driver.

For each dependence-parameter value in the grid, the driver simulates
``replicates`` independent datasets of ``nu`` series of length ``t_len``,
fits every requested estimator plus the full-likelihood baseline to each,
and aggregates mean estimates and mean asymptotic sds.  Relative efficiency
is computed from the aggregated mean sds with full ML as the baseline.

Each replicate is sampled and reduced once to the sufficient statistics of
every fitted estimator (a :class:`~minscore.inference.SeriesReduction`, which
keeps no series, and of a family with more series than statistics only the
pooled statistics and their second moments, from which the fit reads J); a
replicate whose statistics fail (a singular S) fails there.  Each estimator
is then fitted to blocks of consecutive replicates at once, as the lanes of
one minimization (:func:`~minscore.inference.fit_lanes`); a block spans grid
points and is fitted once the floats its reductions keep, and those its fit
holds per lane, reach :data:`RETAINED_FLOATS`.  No lane depends on the
others in its block, and replicates use independently derived seeds, so
results are fixed by the configuration; everything runs on the calling
thread, and aggregation happens in replicate order.  Each report row carries the estimates and sds of its replicates,
which the CSV leaves out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .inference import SeriesReduction, are, fit_lanes, sample_size_error
from .models import _check_size, canonical_model, sample_series
from .scores import EstimatorKind

__all__ = ["ExperimentConfig", "ReportRow", "ConfigError", "run_experiment"]

ALL_ESTIMATORS = tuple(EstimatorKind)

MAX_FAILURE_FRACTION = 0.10
RETAINED_FLOATS = 2**20  # statistics and fit work of one block of replicates fitted together


def format_float(value: float) -> str:
    """A float as the report prints it, to 6 significant digits."""
    return f"{value:.6g}"


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


def _check_config_size(value, minimum: int, name: str) -> None:
    try:
        _check_size(value, minimum, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    """Settings for one simulation study (one model, a grid of true values)."""

    model: str
    param_grid: tuple[float, ...]
    nu: int = 200
    t_len: int = 50
    replicates: int = 200
    mc_b: int = 500  # inert (the Wishart sd is exact); any positive integer validates
    seed: int = 0
    estimators: tuple[EstimatorKind, ...] = ALL_ESTIMATORS

    def __post_init__(self):
        self.model = canonical_model(self.model)
        self.param_grid = tuple(float(v) for v in self.param_grid)
        self.estimators = tuple(EstimatorKind(e) for e in self.estimators)

    def validate(self) -> None:
        for name, least in (("nu", None), ("t_len", None), ("replicates", 1), ("seed", 0),
                            ("mc_b", 1)):
            _check_config_size(getattr(self, name), least, name)
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
        if not self.estimators:
            raise ConfigError("at least one estimator must be requested")
        # the bounds fit checks on data, the floors of nu and t_len among them
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
    # the kept replicates' estimates and sds in replicate order, boundary
    # hits left out; the CSV leaves them out too
    estimates: tuple[float, ...] = field(default=(), repr=False)
    sds: tuple[float, ...] = field(default=(), repr=False)


def _fit_kinds(cfg: ExperimentConfig) -> tuple[EstimatorKind, ...]:
    # Full ML is always fitted as the efficiency baseline.
    kinds = [EstimatorKind.FULL_ML]
    kinds.extend(k for k in ALL_ESTIMATORS if k in cfg.estimators and k not in kinds)
    return tuple(kinds)


def _sample_replicate(cfg, theta0, grid_index, rep_index) -> np.ndarray:
    # the first child that SeedSequence(entropy=seed, spawn_key=(grid_index,
    # rep_index)).spawn(1) returns, as in the reference tables, built directly
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(grid_index, rep_index, 0))
    return sample_series(cfg.model, theta0, cfg.nu, cfg.t_len, seed)


def _reduce_replicate(cfg, theta0, grid_index, rep_index, kinds) -> SeriesReduction:
    # one reduction for every kind: each family of statistics is computed
    # once, and only the statistics are kept
    return SeriesReduction(_sample_replicate(cfg, theta0, grid_index, rep_index), kinds,
                           cfg.model)


def _fit_block(kinds, reduced: list) -> list:
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


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ReportRow]:
    """Run the full study; returns one report row per grid value x estimator,
    each carrying its replicates' estimates and sds.

    Individual replicate failures are tolerated up to 10% per grid point, each
    grid point with failures emitting one ``RuntimeWarning``; beyond that the
    study aborts.  Both messages give the failure count and the first message
    of each exception type, in replicate order.  ``workers`` (an integer
    >= 1) is accepted for compatibility and changes neither the output nor
    the speed: every study runs on the calling thread.
    """
    _check_config_size(workers, 1, "workers")
    cfg.validate()
    kinds = _fit_kinds(cfg)
    jobs = [(theta0, grid_index, rep_index)
            for grid_index, theta0 in enumerate(cfg.param_grid)
            for rep_index in range(cfg.replicates)]
    rows: list[ReportRow] = []
    outcomes: list = []  # fitted replicates of the grid points not yet aggregated
    block: list = []
    held = 0  # floats the block's reductions keep and its fit holds
    for count, job in enumerate(jobs, start=1):
        try:
            reduced = _reduce_replicate(cfg, *job, kinds)
            held += reduced.floats + reduced.fit_floats
        except Exception as exc:  # noqa: BLE001 - replicate isolation
            reduced = exc
        block.append(reduced)
        if held < RETAINED_FLOATS and count < len(jobs):
            continue
        outcomes.extend(_fit_block(kinds, block))
        block, held = [], 0
        # aggregate every grid point whose replicates are all fitted
        while len(outcomes) >= cfg.replicates:
            theta0 = cfg.param_grid[len(rows) // len(kinds)]  # one row per kind
            rows.extend(_aggregate(cfg, kinds, theta0, outcomes[:cfg.replicates]))
            del outcomes[:cfg.replicates]
    return rows


def _aggregate(cfg, kinds, theta0, outcomes) -> list[ReportRow]:
    # the rows of one grid point from its replicates' outcomes, in order
    failed = [o for o in outcomes if isinstance(o, Exception)]
    fitted = [o for o in outcomes if not isinstance(o, Exception)]
    if failed:
        first_causes: dict[str, str] = {}
        for exc in failed:
            first_causes.setdefault(type(exc).__name__, str(exc))
        causes = "".join(f"; first {name}: {text}" for name, text in first_causes.items())
        summary = (
            f"{len(failed)}/{cfg.replicates} replicates failed at "
            f"{cfg.model} parameter {theta0}{causes}"
        )
        if len(failed) > MAX_FAILURE_FRACTION * cfg.replicates:
            raise RuntimeError(summary)
        # stacklevel 3: the caller of run_experiment
        warnings.warn(summary, RuntimeWarning, stacklevel=3)

    # each kind's (estimate, sd) of the replicates off the boundary
    kept = {kind: [(o[kind].estimate, o[kind].sd) for o in fitted if not o[kind].boundary_flag]
            for kind in kinds}
    if not kept[EstimatorKind.FULL_ML]:
        raise RuntimeError(f"no usable full-ML baseline at parameter {theta0}")
    sd_mle = float(np.mean([sd for _, sd in kept[EstimatorKind.FULL_ML]]))
    rows = []
    for kind in kinds:
        if not kept[kind]:
            raise RuntimeError(
                f"estimator {kind} produced no usable replicates at parameter {theta0}"
            )
        estimates, sds = zip(*kept[kind])
        mean_sd = float(np.mean(sds))
        rows.append(
            ReportRow(
                model=cfg.model,
                param_true=theta0,
                estimator=kind,
                mean_est=float(np.mean(estimates)),
                mean_sd=mean_sd,
                are=are(sd_mle, mean_sd),
                n_replicates=len(fitted),
                n_boundary=len(fitted) - len(kept[kind]),
                nu=cfg.nu,
                t_len=cfg.t_len,
                seed=cfg.seed,
                estimates=estimates,
                sds=sds,
            )
        )
    return rows
