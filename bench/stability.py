"""Run-to-run spread of the benchmark, and its baseline at one commit.

    python3 bench/stability.py [--out FILE]

Runs bench/run.py ten times per workload, with seeds 1..10, for the
``run_seconds`` of BENCHMARK.json, and does so twice (two sets of runs of the
same code).  For every end-to-end metric and set it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, against the metric's bound.
It then prints how much the second set's median is worse than the first's, as
a share of the first.  Last, it makes one traced run per workload at the
reference seed.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return result


def _measure(workload: str, seeds: list[int], spec: dict) -> dict:
    runs = [_run(workload, seed, 0) for seed in seeds]
    entry = {}
    print(f"{workload}  ({len(runs)} runs, seeds {seeds[0]}..{seeds[-1]})")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        entry[name] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"], "values": values,
        }
        print(
            f"  {name:<14} median {median:10.5g} {metric['unit']:<3} q1 {q1:10.5g}"
            f" q3 {q3:10.5g}  spread {spread:6.3f}  (bound {metric['bound']},"
            f" third {metric['bound'] / 3:.3f})"
        )
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, RUNS + 1))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "sets": [], "drift": {}}
    for index in range(2):
        print(f"set {index + 1} of 2")
        report["sets"].append({w: _measure(w, seeds, spec) for w in workloads.WORKLOADS})
    # Worsening of the second set's median against the first, as a share of it.
    first, second = report["sets"]
    for workload in first:
        report["drift"][workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            base = first[workload][name]["median"]
            drift = sign * (second[workload][name]["median"] - base) / base
            report["drift"][workload][name] = drift
            print(f"{workload} {name:<14} worsening of set 2 vs set 1: {drift:+.3f}"
                  f"  (bound {metric['bound']})")
    report["traced"] = {}
    for workload in workloads.WORKLOADS:
        traced = _run(workload, workloads.REFERENCE_SEED, 1)
        report["traced"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
