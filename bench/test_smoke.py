"""Smoke test of the benchmark at tiny scale: one grid point, one replicate.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench/test_smoke.py)

Runs every workload once untraced and once traced through bench/run.py and
checks the reported metrics against BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[section]}


def _table(workload: str) -> str:
    return (ROOT / ".bench_out" / workload / "rep0" / "table.csv").read_text()


REQUIRED = {
    "end_to_end": {"setup_s", "wall_s", "peak_rss_mb"},
    "per_layer": {
        "wishart.mc_s", "wishart.mc_draws", "wishart.estimate_s", "wishart.score_calls",
        "models.precision_calls", "models.precision_s", "models.sample_s",
        "scores.objective_calls", "scores.objective_s",
        "optimize.minimize_calls", "optimize.evals_per_minimize", "optimize.minimize_s",
        "simulate.busy_s", "simulate.parallel_eff",
        "report.emit_s", "report.csv_bytes", "cli.overhead_s", "trace.overhead_s",
        "failed_frac", "boundary_frac",
    }
    | {f"inference.{part}.{k}" for part in ("fit_s", "sd_s") for k in workloads.ESTIMATORS_ALL}
    | {f"{layer}.self_s" for layer in tracing.LAYERS},
}


def test_declared_metrics():
    for section, names in REQUIRED.items():
        assert names <= set(_declared(section)), names - set(_declared(section))
    declared = _declared("per_layer")
    assert [(m["name"], m["unit"], m["better"]) for m in declared.values()] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


def test_end_to_end_metrics():
    declared = _declared("end_to_end")
    for workload in workloads.WORKLOADS:
        result = _run(workload, 0)
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]["unit"], name
            assert metric["value"] > 0, name
        cfg = workloads.config(workload, 7, smoke=True)
        attempted, failed, _, _ = check.failure_counts(_table(workload), cfg)
        assert result["attempted"] == attempted == workloads.attempted_replicates(cfg)
        assert result["failed"] == failed


def test_per_layer_metrics():
    declared = _declared("per_layer")
    for workload in workloads.WORKLOADS:
        result = _run(workload, 1)
        metrics = result["metrics"]
        assert set(metrics) == set(declared)
        for name, metric in metrics.items():
            assert metric["unit"] == declared[name]["unit"], name

        # failed_frac is derived from the table's n_replicates.
        cfg = workloads.config(workload, 7, smoke=True)
        text = _table(workload)
        _, rows = check.parse(text)
        attempted = len(cfg["grid"]) * cfg["replicates"]
        done = sum(r["n_replicates"] for r in rows if r["estimator"] == "full")
        assert metrics["failed_frac"]["value"] == (attempted - done) / attempted

        # Self times are non-negative and, with one replicate running at a
        # time, sum to no more than the traced wall time.
        spans_file = json.loads((ROOT / ".bench_out" / workload / "rep1" / "spans.json").read_text())
        spans = []
        for row in spans_file["spans"]:
            span = tracing.Span.__new__(tracing.Span)
            for field, value in zip(spans_file["fields"], row):
                setattr(span, field, value)
            spans.append(span)
        assert spans
        assert min(tracing.self_times(spans).values()) >= 0
        self_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
        assert all(metrics[f"{layer}.self_s"]["value"] >= 0 for layer in tracing.LAYERS)
        assert self_sum <= metrics["trace.wall_s"]["value"]

        wishart = {k: v["value"] for k, v in metrics.items() if k.startswith("wishart.")}
        if workload == "ma1-long-w2":
            assert all(v == 0 for v in wishart.values()), wishart
            assert metrics["inference.sd_s.hyv-wishart"]["value"] == 0
        else:
            assert all(v > 0 for v in wishart.values()), wishart


if __name__ == "__main__":
    for test in (test_declared_metrics, test_end_to_end_metrics,
                 test_per_layer_metrics):
        test()
        print(f"ok  {test.__name__}")
