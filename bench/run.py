"""Study benchmark for minscore: one workload, timed end to end.

    python3 bench/run.py --workload ar1-desk [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (bench/child.py) that imports minscore from ``src`` and uses
only ``run_experiment``/``emit_csv`` or ``cli_main``.  Repetitions continue
while another fits in ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json); every metric is the median over them.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (start
of a fresh interpreter to the end of importing minscore and one small fit),
``wall_s`` (workload start until its table is written) and ``peak_rss_mb``
(peak resident memory of the workload process).  With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics
of bench/tracing.py; ``trace.overhead_s`` is the traced minus the untraced
median ``wall_s``.

Every repetition's table is checked (bench/check.py) and must be byte-identical
across repetitions.  A study that fails (``run_experiment`` raises, or
``cli_main`` returns non-zero) fails the check and counts all of its
replicates as failed; the run stops there.  The run prints each metric with its unit, the table's
sha256, ``csv_identical`` (equal to the stored reference table; null when the
seed is not the reference seed), a run record, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits 1 when the check fails and 2 when the benchmark cannot run at all.
``--smoke`` shrinks each workload to one grid point and one replicate, runs
one repetition (one untraced and one traced with ``--trace 1``) and skips the
tolerance check against the reference table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# A run must end within 180 s; repetitions share this budget.
RUN_BUDGET_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class RepetitionError(RuntimeError):
    """A repetition's process failed or printed no result."""


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git repository."""
    # The ceiling keeps git from taking the HEAD of a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _repetition(args, index: int, traced: bool, deadline: float) -> dict:
    out = OUT / args.workload / f"rep{index}"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--smoke", str(int(args.smoke)),
        "--out", str(out),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"repetition {index} timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(
            f"repetition {index} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    result["traced"] = traced
    result["table"] = Path(result["csv"]).read_bytes() if result["csv"] else None
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _print_metric(name: str, unit: str, values: list[float]) -> None:
    q1, _, q3 = _quartiles(values)
    print(
        f"  {name:<30} {statistics.median(values):>14.6g} {unit:<6}"
        f" (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (ROOT / "src" / "minscore" / "__init__.py").is_file():
        print(f"error: no minscore package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cfg = workloads.config(args.workload, args.seed, smoke=args.smoke)
    kinds = workloads.fitted_kinds(cfg)
    shutil.rmtree(OUT / args.workload, ignore_errors=True)

    # Repetitions run while the next one, as long as the last, still ends
    # within --seconds; a traced run always ends on a traced repetition.  A
    # failed study stops the run: with the same seed it fails every time.
    reps = []
    started = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_start = time.monotonic()
            reps.append(_repetition(args, len(reps), traced, started + RUN_BUDGET_S))
            if reps[-1]["error"]:
                break
            now = time.monotonic()
            fits = not args.smoke and now + (now - rep_start) - started <= args.seconds
            if not fits and (not args.trace or len(reps) % 2 == 0):
                break
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Correctness: the first table is checked; every other must equal it.
    reference_path = HERE / "reference" / f"{args.workload}.csv"
    reference = reference_path.read_text() if reference_path.is_file() else None
    problems = [f"repetition {i}: the study failed: {r['error']}"
                for i, r in enumerate(reps) if r["error"]]
    tables = {rep["table"] for rep in reps if rep["table"] is not None}
    table = next((rep["table"] for rep in reps if rep["table"] is not None), None)
    if table is not None:
        problems += check.check_table(table.decode(), cfg, kinds, reference)
    if len(tables) > 1:
        problems.append(f"{len(tables)} different tables from {len(reps)} repetitions")
    # A failed study wrote no table: all its replicates count as failed.
    counts = [
        check.failure_counts(r["table"].decode(), cfg) if r["table"] is not None
        else (workloads.attempted_replicates(cfg),) * 2 + (0, 0)
        for r in reps
    ]
    attempted, failed, boundary, completed = (sum(c) for c in zip(*counts))
    failed_frac = failed / attempted
    if reps[-1]["error"]:
        for problem in problems:
            print(f"check failed: {problem}")
        print(f"failed_frac {failed_frac:.6g} ratio ({failed}/{attempted})")
        print("check FAILED")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    boundary_frac = boundary / completed
    csv_identical = None
    if args.seed == workloads.REFERENCE_SEED and not args.smoke and reference is not None:
        csv_identical = table == reference.encode()

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    print(
        f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
        f" ({len(plain)} untraced, {len(traced_reps)} traced)"
    )
    print("end to end (untraced):")
    series = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for name, unit in END_TO_END:
        _print_metric(name, unit, series[name])
    print(f"  {'failed_frac':<30} {failed_frac:>14.6g} ratio  ({failed}/{attempted})")
    print(f"  {'boundary_frac':<30} {boundary_frac:>14.6g} ratio  ({boundary}/{completed})")
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
               for name, unit in END_TO_END}

    if args.trace:
        layer_series = {name: [r["layers"][name] for r in traced_reps]
                        for name in traced_reps[0]["layers"]}
        layer_series["trace.wall_s"] = [r["wall_s"] for r in traced_reps]
        layer_series["trace.overhead_s"] = [
            statistics.median(layer_series["trace.wall_s"]) - statistics.median(series["wall_s"])
        ]
        layer_series["report.csv_bytes"] = [len(table)]
        layer_series["failed_frac"] = [failed_frac]
        layer_series["boundary_frac"] = [boundary_frac]
        print("per layer (traced):")
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            _print_metric(name, unit, layer_series[name])
            metrics[name] = {"value": statistics.median(layer_series[name]), "unit": unit}
        print("top self times (last traced repetition):")
        for name, seconds in traced_reps[-1]["top_self"]:
            print(f"  {name:<30} {seconds:>14.6g} s")
        print(f"spans written to {traced_reps[-1]['spans']}")

    print(f"table sha256 {hashlib.sha256(table).hexdigest()}  csv_identical "
          f"{json.dumps(csv_identical)}")
    record = {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        **reps[0]["versions"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "config": cfg,
    }
    print("record " + json.dumps(record))
    for problem in problems:
        print(f"check failed: {problem}")
    print("check " + ("ok" if not problems else "FAILED"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
