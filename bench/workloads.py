"""Workload definitions shared by bench/run.py and its child process.

Each workload is one study at a fixed shape; only the seed varies between
runs.  The replicate counts are reduced from the 200-replicate desk studies
so that one repetition takes a few seconds and a run can repeat it several
times.
"""

from __future__ import annotations

REFERENCE_SEED = 20260808

ESTIMATORS_ALL = ("full", "pairwise", "hyv", "hyv-wishart")

WORKLOADS = {
    # Shape of acceptance criterion 1, single-threaded; the Wishart Monte
    # Carlo sd dominates, so it isolates the wishart/inference sd path.
    "ar1-desk": {
        "entry": "run_experiment",
        "model": "ar1",
        "grid": (-0.9, -0.5, 0.0, 0.5, 0.9),
        "nu": 200,
        "t_len": 50,
        "replicates": 2,
        "mc_b": 500,
        "estimators": ESTIMATORS_ALL,
        "workers": 1,
    },
    # Same shape for MA(1): the Monte Carlo sd and the per-series MA
    # objectives both weigh, so a gain on one layer can be weighed against
    # a loss on the other.
    "ma1-desk": {
        "entry": "run_experiment",
        "model": "ma1",
        "grid": (-0.9, 0.0, 0.9),
        "nu": 200,
        "t_len": 50,
        "replicates": 3,
        "mc_b": 500,
        "estimators": ESTIMATORS_ALL,
        "workers": 1,
    },
    # The command line end to end with the thread pool, CSV and SVG; long
    # series make the O(T^2) precision builds and O(T^3) Cholesky dominate,
    # and no Wishart code runs.
    "ma1-long-w2": {
        "entry": "cli_main",
        "model": "ma1",
        "grid": (-0.9, 0.0, 0.9),
        "nu": 100,
        "t_len": 200,
        "replicates": 2,
        "mc_b": 500,
        "estimators": ("full", "pairwise", "hyv"),
        "workers": 2,
    },
}


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """Full configuration of workload ``name`` at ``seed``.

    ``smoke`` shrinks the study to its first grid point and one replicate.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    cfg = dict(WORKLOADS[name], name=name, seed=int(seed), smoke=bool(smoke))
    if smoke:
        cfg["grid"] = cfg["grid"][:1]
        cfg["replicates"] = 1
    return cfg


def fitted_kinds(cfg: dict) -> tuple[str, ...]:
    """Estimators with a table row: full ML is always fitted as the baseline."""
    return ("full",) + tuple(k for k in ESTIMATORS_ALL[1:] if k in cfg["estimators"])


def attempted_replicates(cfg: dict) -> int:
    return len(cfg["grid"]) * cfg["replicates"]
