"""Output check for the tables the benchmark's workloads write.

A table fails the check when any of these is violated:

- the header is the fixed report header;
- the rows are exactly (model, grid value, estimator) for every grid value and
  every fitted estimator, in the documented sort order, and carry the
  workload's ``nu``, ``t_len`` and ``seed``;
- every numeric field is finite, and ``mean_sd`` and ``are`` are positive;
- every ``full`` row has ``are = 1``, and every other row has
  ``are = (mean_sd of full / mean_sd) ** 2`` up to the 6-digit rounding of
  the printed values (relative ``ARE_ROUNDING``);
- ``0 <= n_boundary < n_replicates <= replicates``, with one ``n_replicates``
  per grid point (each replicate fits every estimator);
- outside smoke scale, each numeric field stays within its tolerance:

  * ``mean_est`` is within ``Z_EST`` standard errors of the true parameter,
    the standard error being ``mean_sd / sqrt(n_replicates - n_boundary)``.
    The truth is the oracle here, so the check holds for every seed.
  * ``mean_sd`` and ``are`` are within ``SD_LOG`` and ``ARE_LOG`` of the
    reference table stored for the workload, measured as ``|ln(x / ref)|``.
    Both are properties of the model at the workload's shape, so they move
    only with the sampling noise of a few replicates.
  * for each estimator, the mean of ``ln(mean_sd / ref)`` over its grid
    points is within ``SD_EST_LOG``, and over all rows within
    ``SD_MEAN_LOG``: row noise averages out, so one estimator's sd scaled
    wrongly at every grid point, or every sd off by a common factor, shows
    even when each row stays within ``SD_LOG``.

The tolerances were fixed from the three workloads at seeds 1..30 against
the reference tables (seed 20260808).  The largest values seen were
|z| = 3.5 for ``mean_est``, 0.26 for ``mean_sd`` and 0.71 for ``are`` (both
at MA(1) pairwise, alpha = -0.9, on ma1-long-w2), 0.111 for one estimator's
mean log ratio of ``mean_sd`` (full on ma1-long-w2) and 0.077 for the mean
over all rows.  Each tolerance is about twice the largest value seen, so a
correct program fails it with negligible probability.  A biased estimator,
one sd off by a factor of 1.7 at a single grid point, one estimator's sd off
by a factor of 1.25 at every grid point (a sqrt(2) slip is 1.41), or all sds
off by a factor of 1.17 fails it.  The exact ``are`` identity above catches a
changed efficiency definition.
"""

from __future__ import annotations

import math

import workloads

HEADER = "model,param_true,estimator,mean_est,mean_sd,are,n_replicates,n_boundary,nu,t_len,seed"

Z_EST = 7.0
SD_LOG = 0.5
ARE_LOG = 1.4
SD_EST_LOG = 0.22
SD_MEAN_LOG = 0.15
ARE_ROUNDING = 1e-4


def parse(text: str) -> tuple[str, list[dict]]:
    lines = text.splitlines()
    header, rows = (lines[0] if lines else ""), []
    names = HEADER.split(",")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"row has {len(fields)} fields, expected {len(names)}: {line!r}")
        row = dict(zip(names, fields))
        for key in ("param_true", "mean_est", "mean_sd", "are"):
            row[key] = float(row[key])
        for key in ("n_replicates", "n_boundary", "nu", "t_len", "seed"):
            row[key] = int(row[key])
        rows.append(row)
    return header, rows


def _key(row: dict) -> tuple:
    return (row["model"], row["param_true"], row["estimator"])


def check_table(text: str, cfg: dict, kinds: tuple[str, ...], reference: str | None) -> list[str]:
    """Problems found in ``text`` (empty when the table passes)."""
    try:
        header, rows = parse(text)
    except ValueError as exc:
        return [f"unparsable table: {exc}"]
    problems = []
    if header != HEADER:
        problems.append(f"header {header!r} differs from {HEADER!r}")
    expected = [
        (cfg["model"], float(f"{v:.6g}"), k)
        for v in sorted(cfg["grid"])
        for k in sorted(kinds)
    ]
    if [_key(r) for r in rows] != expected:
        problems.append(f"row keys {[_key(r) for r in rows]} differ from {expected}")
    per_point = {}
    for row in rows:
        label = "{}/{}/{}".format(*_key(row))
        for key in ("nu", "t_len", "seed"):
            if row[key] != cfg[key]:
                problems.append(f"{label}: {key}={row[key]}, expected {cfg[key]}")
        values = [row[k] for k in ("mean_est", "mean_sd", "are")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{label}: non-finite value in {values}")
            continue
        if row["mean_sd"] <= 0 or row["are"] <= 0:
            problems.append(f"{label}: mean_sd and are must be positive")
        if row["estimator"] == "full" and row["are"] != 1.0:
            problems.append(f"{label}: full row has are={row['are']}, expected 1")
        if not 0 <= row["n_boundary"] < row["n_replicates"] <= cfg["replicates"]:
            problems.append(
                f"{label}: n_boundary={row['n_boundary']}, n_replicates={row['n_replicates']}"
            )
        per_point.setdefault(row["param_true"], set()).add(row["n_replicates"])
    full_sd = {r["param_true"]: r["mean_sd"] for r in rows if r["estimator"] == "full"}
    for row in rows:
        base = full_sd.get(row["param_true"])
        if row["estimator"] == "full" or not base or row["mean_sd"] <= 0:
            continue
        implied = (base / row["mean_sd"]) ** 2
        if not abs(row["are"] / implied - 1.0) <= ARE_ROUNDING:
            problems.append(
                "{}/{}/{}: are={} but (full mean_sd / mean_sd)^2={:.6g}".format(
                    *_key(row), row["are"], implied
                )
            )
    for value, counts in per_point.items():
        if len(counts) != 1:
            problems.append(f"grid point {value}: estimators disagree on n_replicates {counts}")
    if problems or cfg["smoke"]:
        return problems
    return _tolerance_problems(rows, reference)


def _tolerance_problems(rows: list[dict], reference: str | None) -> list[str]:
    if reference is None:
        return ["no reference table for this workload"]
    ref = {_key(r): r for r in parse(reference)[1]}
    problems = []
    sd_logs = {}
    for row in rows:
        label = "{}/{}/{}".format(*_key(row))
        used = row["n_replicates"] - row["n_boundary"]
        z = (row["mean_est"] - row["param_true"]) / (row["mean_sd"] / math.sqrt(used))
        if abs(z) > Z_EST:
            problems.append(f"{label}: mean_est {row['mean_est']} is {z:.2f} standard errors off")
        base = ref.get(_key(row))
        if base is None:
            problems.append(f"{label}: no reference row")
            continue
        sd_log = math.log(row["mean_sd"] / base["mean_sd"])
        sd_logs.setdefault(row["estimator"], []).append(sd_log)
        for key, tol in (("mean_sd", SD_LOG), ("are", ARE_LOG)):
            gap = abs(math.log(row[key] / base[key]))
            if gap > tol:
                problems.append(
                    f"{label}: {key} {row[key]} is {gap:.2f} (log) from reference {base[key]}"
                )
    groups = [(f"{kind} mean_sd", logs, SD_EST_LOG) for kind, logs in sorted(sd_logs.items())]
    groups.append(("mean_sd", [x for logs in sd_logs.values() for x in logs], SD_MEAN_LOG))
    for label, logs, tol in groups:
        if logs and abs(sum(logs) / len(logs)) > tol:
            problems.append(
                f"{label} is off the reference by {sum(logs) / len(logs):.3f} (mean log ratio)"
            )
    return problems


def failure_counts(text: str, cfg: dict) -> tuple[int, int, int, int]:
    """(attempted replicates, failed replicates, boundary-flagged fits,
    completed fits) of a table.

    ``run_experiment`` drops failed replicates from ``n_replicates`` without
    reporting them, so failed = attempted - sum of the full rows' counts.
    """
    _, rows = parse(text)
    attempted = workloads.attempted_replicates(cfg)
    done = sum(r["n_replicates"] for r in rows if r["estimator"] == "full")
    boundary = sum(r["n_boundary"] for r in rows)
    completed = sum(r["n_replicates"] for r in rows)
    return attempted, attempted - done, boundary, completed
