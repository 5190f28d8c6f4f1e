"""Command-line interface.

Subcommands:
  simulate  sample series and dump them as a plain numeric CSV
  fit       fit one estimator to a dataset file, print an estimate record
  table     run a replicated efficiency study, write the report CSV (and
            optionally an SVG efficiency chart)
  check     run the built-in consistency oracles

Exit codes: 0 success, 1 validation error (bad flags/config), 2 runtime
failure.  `table` accepts a `key=value` config file; explicit flags override
file entries.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

import numpy as np

from .inference import EstimateRecord, SeriesReduction, are, fit
from .models import MODELS, sample_series
from .report import emit_are_svg, emit_csv
from .scores import EstimatorKind
from .simulate import ConfigError, ExperimentConfig, format_float, run_experiment

__all__ = ["cli_main", "main"]

FIT_HEADER = "estimator,estimate,sd,are,boundary"
# the keys of a table config file, "-" read as "_"
CONFIG_KEYS = ("model", "grid", "nu", "t", "replicates", "mc_b", "seed", "estimators", "out",
               "svg", "workers")


class _UsageError(Exception):
    """Bad command line; carries the usage text to print."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # also treat comma lists like "-0.9,-0.5,0.5" as values, not option names
        self._negative_number_matcher = re.compile(r"^-[0-9.,]+$")

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="minscore", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_sim = sub.add_parser("simulate",
                           help="sample series and write them as CSV")
    p_sim.add_argument("--model", required=True, choices=MODELS)
    p_sim.add_argument("--param", required=True, type=float,
                       help="dependence parameter (phi or alpha) in (-1, 1)")
    p_sim.add_argument("--nu", type=int, default=200, help="number of series")
    p_sim.add_argument("--t", type=int, default=50, help="series length")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")

    p_fit = sub.add_parser("fit",
                           help="fit one estimator to a dataset CSV")
    p_fit.add_argument("--data", required=True, help="numeric CSV, one series per row")
    p_fit.add_argument("--model", required=True, choices=MODELS)
    p_fit.add_argument("--estimator", required=True,
                       choices=[k.value for k in EstimatorKind])
    p_fit.add_argument("--out", default=None, help="write the record here instead of stdout")

    p_tab = sub.add_parser("table",
                           help="run a replicated efficiency study")
    p_tab.add_argument("--config", default=None, help="key=value config file")
    p_tab.add_argument("--model", choices=MODELS)
    p_tab.add_argument("--grid", help="comma-separated true parameter values")
    p_tab.add_argument("--nu", type=int)
    p_tab.add_argument("--t", type=int)
    p_tab.add_argument("--replicates", type=int)
    p_tab.add_argument("--mc-b", type=int,
                       help="accepted and validated for compatibility; affects no table output")
    p_tab.add_argument("--seed", type=int)
    p_tab.add_argument("--estimators",
                       help="comma-separated subset of full,pairwise,hyv,hyv-wishart")
    p_tab.add_argument("--out", help="report CSV path")
    p_tab.add_argument("--svg", default=None, help="optional efficiency chart path")
    p_tab.add_argument("--workers", type=int, default=None,
                       help="accepted and validated (>= 1) for compatibility; changes neither "
                            "output nor speed")

    sub.add_parser("check",
                   help="run the built-in consistency oracles")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                name = key.strip().lower().replace("-", "_")
                if name not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}; "
                                      f"known: {', '.join(CONFIG_KEYS)}")
                if name in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key.strip()!r} repeats "
                                      f"{path}:{lines[name]}")
                entries[name] = value.strip()
                lines[name] = lineno
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return entries


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {text!r}: {exc}") from exc


def _parse_estimators(text: str) -> tuple[EstimatorKind, ...]:
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            kinds.append(EstimatorKind(name))
        except ValueError as exc:
            valid = ",".join(k.value for k in EstimatorKind)
            raise ConfigError(f"unknown estimator {name!r}; valid: {valid}") from exc
    return tuple(kinds)


def _check_outputs(*paths, inputs=()) -> None:
    # a path that cannot be written, or that names one of the ``inputs`` the
    # command reads, fails now, not after the work has run; None or an empty
    # path names no file and is left to the caller
    for path in filter(None, paths):
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path!r}: directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")
        for source in filter(None, inputs):
            if os.path.realpath(path) == os.path.realpath(source):
                raise ConfigError(f"output {path!r} and input {source!r} name the same file; "
                                  "writing would overwrite the input")


def _table_config(args) -> tuple[ExperimentConfig, str, str | None, dict]:
    file_entries = _read_config_file(args.config) if args.config else {}

    def given(key, convert=str):
        # the flag, else the config file entry, else None; a flag or entry
        # that is still text is converted here
        value = getattr(args, key)
        if value is None and key in file_entries:
            value = file_entries[key]
        if not isinstance(value, str):
            return value
        try:
            return convert(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad config value for {key}: {exc}") from exc

    # only the fields that the flags or the file give: ExperimentConfig holds
    # the defaults
    fields = {field: given(key, convert) for field, key, convert in (
        ("model", "model", str), ("param_grid", "grid", _parse_grid), ("nu", "nu", int),
        ("t_len", "t", int), ("replicates", "replicates", int), ("mc_b", "mc_b", int),
        ("seed", "seed", int), ("estimators", "estimators", _parse_estimators))}
    if fields["model"] is None or fields["param_grid"] is None:
        raise ConfigError("table needs at least --model and --grid (flags or config file)")
    cfg = ExperimentConfig(**{k: v for k, v in fields.items() if v is not None})
    out, svg, workers = given("out"), given("svg"), given("workers", int)
    if not out:
        raise ConfigError("table needs an output path (--out or out= in the config file)")
    if svg and set(cfg.estimators) == {EstimatorKind.FULL_ML}:
        # the chart omits the baseline, so it would have no line to draw
        raise ConfigError("the SVG chart needs an estimator besides full, whose efficiency "
                          "is 1 by construction and is not plotted")
    if svg and os.path.realpath(svg) == os.path.realpath(out):
        raise ConfigError(f"--out {out!r} and --svg {svg!r} name the same file; the chart "
                          "would overwrite the table")
    _check_outputs(out, svg, inputs=(args.config,))
    return cfg, out, svg, {} if workers is None else {"workers": workers}


def _record_line(record: EstimateRecord, baseline: EstimateRecord) -> str:
    # the efficiency is against the full-ML fit of the same data
    ratio = None if None in (baseline.sd, record.sd) else are(baseline.sd, record.sd)
    cells = ["nan" if v is None else format_float(v)
             for v in (record.estimate, record.sd, ratio)]
    return ",".join([record.kind.value, *cells, str(int(record.boundary_flag))])


def _cmd_simulate(args) -> int:
    if not args.out:
        raise ConfigError("simulate needs a non-empty --out path")
    _check_outputs(args.out)
    y = sample_series(args.model, args.param, args.nu, args.t, args.seed)
    lines = [",".join(f"{v:.17g}" for v in row) for row in y]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _cmd_fit(args) -> int:
    if args.out == "":
        raise ConfigError("fit needs a non-empty --out path")
    _check_outputs(args.out, inputs=(args.data,))
    try:
        with warnings.catch_warnings():
            # an empty file is rejected below, without numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            y = np.loadtxt(args.data, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {args.data!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse data file {args.data!r}: {exc}") from exc
    if y.size == 0:
        raise ConfigError(f"data file {args.data!r} holds no series")
    kind = EstimatorKind(args.estimator)
    # one reduction for both fits; the requested kind's bounds fail first
    reduction = SeriesReduction(y, (kind, EstimatorKind.FULL_ML), args.model)
    baseline = fit(reduction, EstimatorKind.FULL_ML, args.model)
    record = fit(reduction, kind, args.model)
    text = FIT_HEADER + "\n" + _record_line(record, baseline) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_table(args) -> int:
    cfg, out_path, svg_path, run_options = _table_config(args)
    rows = run_experiment(cfg, **run_options)
    emit_csv(rows, out_path)
    if svg_path:
        emit_are_svg(rows, svg_path)
    return 0


def _cmd_check() -> int:
    # the oracles load only for this command, not with every other one
    from .selfcheck import run_checks

    results = run_checks()
    for name, passed, message in results:
        status = "ok  " if passed else "FAIL"
        suffix = f"  ({message})" if message else ""
        print(f"{status}  {name}{suffix}")
    failed = sum(1 for _, passed, _ in results if not passed)
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def cli_main(argv=None) -> int:
    """Entry point returning an exit code (0 ok, 1 validation, 2 runtime)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_check()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
