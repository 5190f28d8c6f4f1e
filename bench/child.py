"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition:

    python3 bench/child.py --workload NAME --seed N --trace 0|1 --smoke 0|1 --out DIR

It imports minscore from the checkout's ``src``, finishes one small fit (the
end of set-up), runs the workload once, writes the table under ``--out`` and
prints one JSON object as its last line of standard output.  When the study
itself fails (``run_experiment`` raises ``RuntimeError`` or ``cli_main``
returns non-zero), the object carries the message under ``error`` and no table.
"""

from __future__ import annotations

import time

import argparse
import json
import resource
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_minscore(seed: int):
    """Import minscore from this checkout and finish one small fit."""
    if not (SRC / "minscore" / "__init__.py").is_file():
        raise SystemExit(f"no minscore package under {SRC}")
    sys.path.insert(0, str(SRC))
    import minscore
    import minscore.cli

    if Path(minscore.__file__).resolve().parent != (SRC / "minscore").resolve():
        raise SystemExit(f"imported minscore from {minscore.__file__}, not from {SRC}")
    y = minscore.sample_series("ar1", 0.5, 20, 10, seed)
    minscore.fit(y, "full", "ar1")
    return minscore


def _run(minscore, cfg: dict, out: Path) -> None:
    """Run the workload once and write its table."""
    csv_path = out / "table.csv"
    if cfg["entry"] == "run_experiment":
        study = minscore.ExperimentConfig(
            model=cfg["model"],
            param_grid=cfg["grid"],
            nu=cfg["nu"],
            t_len=cfg["t_len"],
            replicates=cfg["replicates"],
            mc_b=cfg["mc_b"],
            seed=cfg["seed"],
            estimators=cfg["estimators"],
        )
        rows = minscore.run_experiment(study, workers=cfg["workers"])
        minscore.emit_csv(rows, str(csv_path))
        return
    argv = [
        "table",
        "--model", cfg["model"],
        "--grid", ",".join(repr(v) for v in cfg["grid"]),
        "--nu", str(cfg["nu"]),
        "--t", str(cfg["t_len"]),
        "--replicates", str(cfg["replicates"]),
        "--mc-b", str(cfg["mc_b"]),
        "--seed", str(cfg["seed"]),
        "--estimators", ",".join(cfg["estimators"]),
        "--out", str(csv_path),
        "--svg", str(out / "are.svg"),
        "--workers", str(cfg["workers"]),
    ]
    code = minscore.cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"cli_main exited {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    minscore = _import_minscore(args.seed)
    setup_end = time.monotonic()

    import numpy
    import scipy

    cfg = workloads.config(args.workload, args.seed, smoke=bool(args.smoke))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install("minscore")
    start = time.perf_counter()
    try:
        _run(minscore, cfg, out)
        error = None
    except RuntimeError as exc:
        error = str(exc)
    wall = time.perf_counter() - start
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "csv": None if error else str(out / "table.csv"),
        "error": error,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, cfg["workers"])
        result["top_self"] = tracing.top_self_times(tracer.spans)
        spans_path = out / "spans.json"
        spans_path.write_text(
            json.dumps(
                {
                    "fields": tracing.Span.__slots__,
                    "spans": [s.as_row() for s in tracer.spans],
                }
            )
        )
        result["spans"] = str(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
