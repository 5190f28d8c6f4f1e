"""Command-line interface: subcommands, exit codes, determinism."""

import inspect
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import minscore
from minscore import ExperimentConfig, sample_series
from minscore.cli import _build_parser, _table_config, cli_main

TABLE_ARGS = [
    "table", "--model", "ar1", "--grid", "0.3", "--nu", "25", "--t", "6",
    "--replicates", "6", "--mc-b", "50", "--seed", "42",
]


def run(argv, capsys=None):
    code = cli_main(argv)
    return code


def unwritable_path(tmp_path, where: str):
    # a file in a directory that does not exist, or a directory
    if where == "missing":
        return tmp_path / "no" / "such" / "x.csv"
    (tmp_path / "outdir").mkdir()
    return tmp_path / "outdir"


def source_mutant(module, name: str, old: str, new: str):
    # ``module.name`` recompiled with its one ``old`` replaced by ``new``
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "series.csv"
        code = cli_main([
            "simulate", "--model", "ar1", "--param", "0.5", "--nu", "7",
            "--t", "9", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (7, 9)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli_main([
                "simulate", "--model", "ma1", "--param", "-0.4", "--nu", "5",
                "--t", "8", "--seed", "11", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("model,param", [("ar1", 0.5), ("ma1", -0.4)])
    def test_values_are_sample_series(self, tmp_path, model, param):
        out = tmp_path / "series.csv"
        assert cli_main([
            "simulate", "--model", model, "--param", str(param), "--nu", "6",
            "--t", "9", "--seed", "8", "--out", str(out),
        ]) == 0
        written = np.loadtxt(out, delimiter=",", ndmin=2)
        assert np.array_equal(written, sample_series(model, param, 6, 9, 8))

    def test_bad_param_exits_1(self, tmp_path, capsys):
        code = cli_main([
            "simulate", "--model", "ar1", "--param", "1.5", "--nu", "5",
            "--t", "8", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "|phi| < 1" in capsys.readouterr().err

    def test_negative_seed_exits_1_names_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli_main([
            "simulate", "--model", "ma1", "--param", "0.5", "--nu", "5",
            "--t", "8", "--seed", "-1", "--out", str(out),
        ])
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch, where):
        # it once sampled the series and then exited 2 ("[Errno 2]", "[Errno 21]")
        import minscore.cli as cli

        sampled = []
        monkeypatch.setattr(cli, "sample_series", lambda *args: sampled.append(args))
        out = unwritable_path(tmp_path, where)
        code = cli_main([
            "simulate", "--model", "ar1", "--param", "0.5", "--nu", "5",
            "--t", "8", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert f"cannot write {str(out)!r}" in capsys.readouterr().err
        assert sampled == []

    def test_empty_out_exits_1_before_sampling(self, capsys, monkeypatch):
        import minscore.cli as cli

        sampled = []
        monkeypatch.setattr(cli, "sample_series", lambda *args: sampled.append(args))
        code = cli_main(["simulate", "--model", "ar1", "--param", "0.5", "--out", ""])
        assert code == 1
        assert "non-empty --out" in capsys.readouterr().err
        assert sampled == []


class TestFit:
    def test_empty_out_exits_1_before_reading(self, tmp_path, capsys):
        # it once wrote the record to stdout and exited 0; the data file does
        # not exist, so reading it first would fail with another message
        code = cli_main(["fit", "--data", str(tmp_path / "absent.csv"), "--model", "ar1",
                         "--estimator", "hyv", "--out", ""])
        captured = capsys.readouterr()
        assert code == 1
        assert "fit needs a non-empty --out path" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_exits_1_before_fitting(self, tmp_path, capsys, monkeypatch, where):
        # it once fitted the data and then exited 2 ("[Errno 2]", "[Errno 21]")
        import minscore.cli as cli

        data = tmp_path / "data.csv"
        assert cli_main([
            "simulate", "--model", "ar1", "--param", "0.5", "--nu", "20",
            "--t", "6", "--seed", "5", "--out", str(data),
        ]) == 0
        reduced = []
        monkeypatch.setattr(cli, "SeriesReduction", lambda *args: reduced.append(args))
        out = unwritable_path(tmp_path, where)
        code = cli_main(["fit", "--data", str(data), "--model", "ar1", "--estimator", "hyv",
                         "--out", str(out)])
        assert code == 1
        assert f"cannot write {str(out)!r}" in capsys.readouterr().err
        assert reduced == []

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_out_naming_the_data_exits_1_before_reading(self, tmp_path, capsys, monkeypatch,
                                                        spelling):
        # the record once overwrote the data file and the exit code was 0
        import minscore.cli as cli

        data = tmp_path / "data.csv"
        assert cli_main(["simulate", "--model", "ar1", "--param", "0.5", "--nu", "20",
                         "--t", "6", "--seed", "5", "--out", str(data)]) == 0
        before = data.read_bytes()
        read = []
        monkeypatch.setattr(cli.np, "loadtxt", lambda *args, **kwargs: read.append(args))
        out = data if spelling == "same" else tmp_path / "." / "data.csv"
        code = cli_main(["fit", "--data", str(data), "--model", "ar1", "--estimator", "hyv",
                         "--out", str(out)])
        assert code == 1
        assert (f"output {str(out)!r} and input {str(data)!r} name the same file"
                in capsys.readouterr().err)
        assert read == [] and data.read_bytes() == before

    def test_fit_from_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli_main([
            "simulate", "--model", "ar1", "--param", "0.5", "--nu", "100",
            "--t", "30", "--seed", "5", "--out", str(data),
        ]) == 0
        code = cli_main([
            "fit", "--data", str(data), "--model", "ar1",
            "--estimator", "pairwise",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "estimator,estimate,sd,are,boundary"
        fields = out[1].split(",")
        assert fields[0] == "pairwise"
        assert abs(float(fields[1]) - 0.5) < 0.1
        assert float(fields[2]) > 0
        assert 0 < float(fields[3]) <= 1.2  # efficiency vs the full-ML baseline
        assert fields[4] == "0"

    def test_fit_reduces_the_data_once(self, tmp_path, capsys, monkeypatch):
        # the bounds check, the full-ML baseline and the hyv fit share one
        # reduction, so the series are rotated into the DST-I basis once, and
        # the record is that of standalone fits
        import minscore.scores as scores
        from minscore import EstimatorKind, fit
        from minscore.cli import FIT_HEADER, _record_line

        data = tmp_path / "data.csv"
        assert cli_main([
            "simulate", "--model", "ma1", "--param", "0.4", "--nu", "30",
            "--t", "12", "--seed", "9", "--out", str(data),
        ]) == 0
        y = np.loadtxt(data, delimiter=",", ndmin=2)
        expected = _record_line(fit(y, EstimatorKind.HYV_UNIVARIATE, "ma1"),
                                fit(y, EstimatorKind.FULL_ML, "ma1"))
        calls = []
        real_dst = scores.ma1_sine_transform

        def dst(*args, **kwargs):
            calls.append(args)
            return real_dst(*args, **kwargs)

        monkeypatch.setattr(scores, "ma1_sine_transform", dst)
        assert cli_main(["fit", "--data", str(data), "--model", "ma1", "--estimator", "hyv"]) == 0
        assert capsys.readouterr().out == f"{FIT_HEADER}\n{expected}\n"
        assert len(calls) == 1

    def test_missing_file_exits_1(self, capsys):
        code = cli_main([
            "fit", "--data", "/no/such/file.csv", "--model", "ar1",
            "--estimator", "full",
        ])
        assert code == 1

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_exits_1(self, tmp_path, capsys, text):
        # an empty file once warned from numpy, then named the series-length
        # bound for the (0, 1) matrix it read
        data = tmp_path / "empty.csv"
        data.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["fit", "--data", str(data), "--model", "ar1", "--estimator", "full"])
        assert code == 1
        assert "holds no series" in capsys.readouterr().err

    def test_non_finite_data_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0.1,0.2,0.3\n0.4,nan,0.6\n0.7,0.8,inf\n")
        code = cli_main(["fit", "--data", str(data), "--model", "ar1", "--estimator", "full"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_wishart_sd_below_bound_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli_main([
            "simulate", "--model", "ar1", "--param", "0.3", "--nu", "13",
            "--t", "10", "--seed", "4", "--out", str(data),
        ]) == 0
        code = cli_main([
            "fit", "--data", str(data), "--model", "ar1", "--estimator", "hyv-wishart",
        ])
        assert code == 1
        assert "nu >= T + 4" in capsys.readouterr().err

    def test_wishart_bound_fails_before_any_fitting(self, tmp_path, capsys, monkeypatch):
        import minscore.inference as inference

        data = tmp_path / "data.csv"
        assert cli_main([
            "simulate", "--model", "ar1", "--param", "0.3", "--nu", "12",
            "--t", "10", "--seed", "4", "--out", str(data),
        ]) == 0
        minimized = []
        monkeypatch.setattr(inference, "minimize_lanes", lambda *a, **k: minimized.append(a))
        code = cli_main([
            "fit", "--data", str(data), "--model", "ar1", "--estimator", "hyv-wishart",
        ])
        assert code == 1
        assert "nu >= T + 4" in capsys.readouterr().err
        assert minimized == []

    @pytest.mark.parametrize("model,estimator", [("ma1", "full"), ("ar1", "hyv-wishart")])
    def test_one_column_file_exits_1_names_bound(self, tmp_path, capsys, model, estimator):
        # one value per row is nu series of length 1, where the sign of the
        # dependence parameter is not identified
        data = tmp_path / "column.csv"
        data.write_text("".join(f"{v}\n" for v in np.linspace(-1.0, 1.0, 20)))
        code = cli_main(["fit", "--data", str(data), "--model", model, "--estimator", estimator])
        assert code == 1
        assert "length >= 2, got 1" in capsys.readouterr().err

    def test_output_file_and_baseline_are(self, tmp_path):
        data = tmp_path / "data.csv"
        cli_main([
            "simulate", "--model", "ma1", "--param", "0.2", "--nu", "40",
            "--t", "10", "--seed", "6", "--out", str(data),
        ])
        out = tmp_path / "record.csv"
        code = cli_main([
            "fit", "--data", str(data), "--model", "ma1", "--estimator", "full",
            "--out", str(out),
        ])
        assert code == 0
        header, record = out.read_text().strip().split("\n")
        assert header.startswith("estimator,")
        assert float(record.split(",")[3]) == 1.0  # the baseline's own efficiency


class TestTable:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli_main(TABLE_ARGS + ["--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 4  # header + one row per estimator

    def test_invalid_grid_exits_1_names_bound(self, tmp_path, capsys):
        code = cli_main([
            "table", "--model", "ar1", "--grid", "1.5", "--nu", "25", "--t", "6",
            "--replicates", "2", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "(-1, 1)" in capsys.readouterr().err

    def test_wishart_sd_below_bound_exits_1(self, tmp_path, capsys):
        code = cli_main([
            "table", "--model", "ma1", "--grid", "0.3", "--nu", "9", "--t", "6",
            "--replicates", "2", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "nu >= t + 4" in capsys.readouterr().err

    def test_series_too_short_exits_1_names_bound(self, tmp_path, capsys):
        code = cli_main([
            "table", "--model", "ar1", "--grid", "0.3", "--nu", "20", "--t", "2",
            "--replicates", "3", "--estimators", "hyv", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "t >= 3" in capsys.readouterr().err

    def test_single_observation_series_exits_1_names_bound(self, tmp_path, capsys):
        code = cli_main([
            "table", "--model", "ma1", "--grid", "0.3", "--nu", "20", "--t", "1",
            "--replicates", "3", "--estimators", "hyv", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "t >= 2" in capsys.readouterr().err

    def test_repeated_grid_value_exits_1_without_csv(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli_main([
            "table", "--model", "ar1", "--grid", "0.5,0.50000001", "--nu", "20", "--t", "10",
            "--replicates", "2", "--estimators", "full,pairwise", "--out", str(out),
        ])
        assert code == 1
        assert "grid value 0.50000001 repeats 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_single_series_exits_1_before_fitting(self, tmp_path, capsys, monkeypatch):
        import minscore.simulate as sim

        fitted = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: fitted.append(args))
        code = cli_main([
            "table", "--model", "ar1", "--grid", "0.5", "--nu", "1", "--t", "5",
            "--replicates", "3", "--estimators", "full", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "nu >= 2" in capsys.readouterr().err
        assert fitted == []

    def test_negative_seed_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch):
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        code = cli_main(TABLE_ARGS[:-2] + ["--seed", "-3", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert sampled == []

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_estimator_list_exits_1(self, tmp_path, capsys, spelling):
        # a given but empty list is no request for the default of all four
        out = tmp_path / "x.csv"
        if spelling == "flag":
            argv = TABLE_ARGS + ["--estimators", "", "--out", str(out)]
        else:
            cfg = tmp_path / "study.cfg"
            cfg.write_text(f"model = ar1\ngrid = 0.3\nestimators =\nout = {out}\n")
            argv = ["table", "--config", str(cfg)]
        assert cli_main(argv) == 1
        assert "at least one estimator must be requested" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_overrides_config_file(self, tmp_path, monkeypatch):
        import minscore.cli as cli

        used = []
        real = cli.run_experiment

        def spy(cfg, workers=1):
            used.append(workers)
            return real(cfg, workers=workers)

        monkeypatch.setattr(cli, "run_experiment", spy)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "model = ar1\ngrid = 0.3\nnu = 20\nt = 5\nreplicates = 2\n"
            "estimators = full\nworkers = 4\n"
            f"out = {tmp_path / 't.csv'}\n"
        )
        assert cli_main(["table", "--config", str(cfg)]) == 0
        assert cli_main(["table", "--config", str(cfg), "--workers", "1"]) == 0
        assert used == [4, 1]

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        paths = [tmp_path / f"t{i}.csv" for i in range(3)]
        workers = ["1", "1", "4"]
        for path, n in zip(paths, workers):
            code = cli_main(TABLE_ARGS + ["--out", str(path), "--workers", n])
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_svg_output(self, tmp_path):
        out, svg = tmp_path / "t.csv", tmp_path / "t.svg"
        code = cli_main([
            "table", "--model", "ma1", "--grid", "-0.4,0.4", "--nu", "25",
            "--t", "6", "--replicates", "4", "--mc-b", "50", "--seed", "2",
            "--estimators", "full,pairwise,hyv",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_svg_of_baseline_only_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                          spelling):
        # the chart omits full ML, so a study of full alone has nothing to
        # draw; it once ran the study and wrote the CSV before failing
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        out, svg = tmp_path / "t.csv", tmp_path / "t.svg"
        if spelling == "flag":
            argv = TABLE_ARGS + ["--estimators", "full", "--out", str(out), "--svg", str(svg)]
        else:
            cfg = tmp_path / "study.cfg"
            cfg.write_text(f"model = ar1\ngrid = 0.3\nestimators = full\nout = {out}\n"
                           f"svg = {svg}\n")
            argv = ["table", "--config", str(cfg)]
        assert cli_main(argv) == 1
        assert "SVG chart needs an estimator besides full" in capsys.readouterr().err
        assert sampled == [] and not out.exists() and not svg.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# comment line\n"
            "model = ar1\n"
            "grid = 0.3\n"
            "nu = 25\n"
            "t = 6\n"
            "replicates = 6\n"
            "mc-b = 50\n"
            "seed = 42\n"
            f"out = {tmp_path / 'from_file.csv'}\n"
        )
        assert cli_main(["table", "--config", str(cfg)]) == 0
        flag_out = tmp_path / "override.csv"
        assert cli_main(["table", "--config", str(cfg), "--out", str(flag_out)]) == 0
        assert (tmp_path / "from_file.csv").read_bytes() == flag_out.read_bytes()

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        # an editor's UTF-8 byte-order mark once became part of the first key
        # and the file exited 1 with unknown key '\ufeffmodel'
        tables = []
        for encoding in ("utf-8", "utf-8-sig"):
            cfg, out = tmp_path / f"{encoding}.cfg", tmp_path / f"{encoding}.csv"
            cfg.write_text("model = ar1\ngrid = 0.3\nnu = 25\nt = 6\nreplicates = 6\n"
                           f"out = {out}\n", encoding=encoding)
            assert cli_main(["table", "--config", str(cfg)]) == 0, capsys.readouterr().err
            tables.append(out.read_bytes())
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbfmodel")
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("key", ["out", "svg"])
    def test_output_naming_the_config_exits_1_before_sampling(self, tmp_path, capsys,
                                                              monkeypatch, key):
        # the table or chart once overwrote the config file and the exit code was 0
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        cfg = tmp_path / "study.cfg"
        paths = {"out": tmp_path / "t.csv", "svg": tmp_path / "t.svg", key: cfg}
        cfg.write_text("model = ar1\ngrid = 0.3\nnu = 25\nt = 6\nreplicates = 6\n"
                       f"out = {paths['out']}\nsvg = {paths['svg']}\n")
        before = cfg.read_bytes()
        assert cli_main(["table", "--config", str(cfg)]) == 1
        assert (f"output {str(cfg)!r} and input {str(cfg)!r} name the same file"
                in capsys.readouterr().err)
        assert sampled == [] and cfg.read_bytes() == before
        assert not any(p.exists() for p in paths.values() if p != cfg)

    @pytest.mark.parametrize("line,key", [("replicats = 3", "replicats"), ("sed = 4", "sed")])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, monkeypatch, line, key):
        # a misspelt key is named with its line, not ignored in favour of a default
        import minscore.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("study ran"))
        cfg = tmp_path / "study.cfg"
        out = tmp_path / "x.csv"
        cfg.write_text(f"model = ar1\ngrid = 0.3\n{line}\nout = {out}\n")
        assert cli_main(["table", "--config", str(cfg)]) == 1
        assert f"{cfg}:3: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first,second,key", [
        ("nu = 20", "nu = 30", "nu"),
        ("mc-b = 50", "mc_b = 60", "mc_b"),  # one key, spelt two ways
    ])
    def test_repeated_config_key_exits_1(self, tmp_path, capsys, monkeypatch, first, second, key):
        # the last value does not silently win; both lines are named
        import minscore.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("study ran"))
        cfg = tmp_path / "study.cfg"
        out = tmp_path / "x.csv"
        cfg.write_text(f"model = ar1\n{first}\ngrid = 0.3\n{second}\nout = {out}\n")
        assert cli_main(["table", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:4: key {key!r} repeats {cfg}:2" in err
        assert not out.exists()

    def test_workers_below_one_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(TABLE_ARGS + ["--out", str(out), "--workers", "0"]) == 1
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["out", "svg"])
    def test_missing_output_directory_exits_1_before_sampling(self, tmp_path, capsys,
                                                              monkeypatch, missing):
        # it once ran the whole study and then exited 2 (for --svg, after
        # writing the CSV)
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        paths = {"out": tmp_path / "t.csv", "svg": tmp_path / "t.svg"}
        paths[missing] = tmp_path / "no" / "such" / paths[missing].name
        argv = TABLE_ARGS + ["--out", str(paths["out"]), "--svg", str(paths["svg"])]
        assert cli_main(argv) == 1
        assert f"cannot write {str(paths[missing])!r}" in capsys.readouterr().err
        assert sampled == [] and not paths["out"].exists()

    @pytest.mark.parametrize("folder", ["out", "svg"])
    def test_output_path_naming_a_directory_exits_1_before_sampling(self, tmp_path, capsys,
                                                                   monkeypatch, folder):
        # it once ran the whole study and then exited 2 ("Is a directory")
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        paths = {"out": tmp_path / "t.csv", "svg": tmp_path / "t.svg"}
        paths[folder] = tmp_path / "outdir"
        paths[folder].mkdir()
        argv = TABLE_ARGS + ["--out", str(paths["out"]), "--svg", str(paths["svg"])]
        assert cli_main(argv) == 1
        assert f"cannot write {str(paths[folder])!r}: it is a directory" in capsys.readouterr().err
        assert sampled == [] and not paths["out"].is_file()

    def test_out_and_svg_naming_one_file_exits_1_before_sampling(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the chart once overwrote the table and the exit code was 0
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        (tmp_path / "t").mkdir()
        out, svg = tmp_path / "t" / "same", tmp_path / "t" / ".." / "t" / "same"
        assert cli_main(TABLE_ARGS + ["--out", str(out), "--svg", str(svg)]) == 1
        err = capsys.readouterr().err
        assert f"--out {str(out)!r} and --svg {str(svg)!r} name the same file" in err
        assert sampled == [] and not out.exists()

    def test_unset_values_keep_the_config_defaults(self, tmp_path):
        out = str(tmp_path / "t.csv")
        args = _build_parser().parse_args(["table", "--model", "ar1", "--grid", "0.5",
                                           "--out", out])
        assert _table_config(args) == (ExperimentConfig("ar1", (0.5,)), out, None, {})

    def test_requires_out(self, capsys):
        code = cli_main(["table", "--model", "ar1", "--grid", "0.2"])
        assert code == 1
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch, source):
        # it once ran the whole study and then exited 2 ("cannot write CSV to ''")
        import minscore.simulate as sim

        sampled = []
        monkeypatch.setattr(sim, "_reduce_replicate", lambda *args: sampled.append(args))
        if source == "flag":
            argv = TABLE_ARGS + ["--out", ""]
        else:
            cfg = tmp_path / "study.cfg"
            cfg.write_text("out =\n")
            argv = TABLE_ARGS + ["--config", str(cfg)]
        assert cli_main(argv) == 1
        assert "table needs an output path" in capsys.readouterr().err
        assert sampled == []

    def test_estimator_subset_keeps_baseline_row(self, tmp_path):
        out = tmp_path / "sub.csv"
        code = cli_main([
            "table", "--model", "ar1", "--grid", "0.2", "--nu", "20", "--t", "5",
            "--replicates", "3", "--seed", "1", "--estimators", "pairwise",
            "--out", str(out),
        ])
        assert code == 0
        body = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        estimators = {line.split(",")[2] for line in body}
        assert estimators == {"full", "pairwise"}


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code = cli_main(TABLE_ARGS + ["--not-a-flag", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_unknown_estimator(self, tmp_path, capsys):
        code = cli_main(TABLE_ARGS + ["--estimators", "bogus", "--out",
                                      str(tmp_path / "x.csv")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestCheck:
    def test_check_passes(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out
        assert "FAIL" not in out

    def test_spectral_check_catches_a_trace_mutation(self, monkeypatch):
        # scaling the MA(1) hyv trace term by 1 + 1e-7 fails the long-series
        # spectral check on its own (T = 200, |alpha| = 0.999): its error is
        # per series and relative, not scaled by the largest |objective|
        import minscore.scores as scores
        from minscore import selfcheck

        real = scores._terms

        def mutated(kind, model, t_len, theta, order=0):
            coef, const = real(kind, model, t_len, theta, order)
            if (kind, model) == (scores.EstimatorKind.HYV_UNIVARIATE, "ma1"):
                const = const * (1 + 1e-7)
            return coef, const

        selfcheck._check_ma1_spectral_objectives()
        monkeypatch.setattr(scores, "_terms", mutated)
        with pytest.raises(AssertionError, match="spectral MA.1. hyv"):
            selfcheck._check_ma1_spectral_objectives()

    @pytest.mark.parametrize("kind,column", [("full", 5), ("hyv", 7)])
    def test_ar1_check_catches_a_sign_slip(self, replace_reducer, kind, column):
        # the phi < 0 half's cross sum (Q of full, B of hyv) without its sign:
        # the statistics of every series at phi < 0 are off
        import minscore.scores as scores
        from minscore import selfcheck

        real = scores._reducer(kind, "ar1")

        def mutated(d):
            stats = real(d)
            stats[..., column] *= -1.0
            return stats

        selfcheck._check_ar1_objectives()
        replace_reducer(real, mutated)
        with pytest.raises(AssertionError, match=f"AR.1. {kind} off by .* phi=-"):
            selfcheck._check_ar1_objectives()

    def test_symmetry_check_catches_a_dropped_sign(self, replace_reducer):
        # Q = sum e_t s d_{t-1} of the phi < 0 half without its sign s = -1:
        # the fit of the sign-alternated data no longer mirrors the fit of the
        # data, whose estimate reads the phi > 0 half
        import minscore.scores as scores
        from minscore import selfcheck

        real = scores._reducer("full", "ar1")

        def mutated(d):
            stats = real(d)
            stats[..., 5] *= -1.0
            return stats

        selfcheck._check_symmetries()
        replace_reducer(real, mutated)
        with pytest.raises(AssertionError, match="ar1 full sign-alternated"):
            selfcheck._check_symmetries()

    def test_derivative_check_catches_a_product_rule_slip(self, monkeypatch):
        # the a0 b2 term of the product rule's second row with its sign
        # flipped: the MA(1) pairwise second derivatives, and so its sd, move
        # (0.01554 to 0.00327 at nu = 200, T = 50, alpha = 0.9) while the
        # values do not, so only the exact-derivative check sees it
        import minscore.models as models
        import minscore.scores as scores
        from minscore import selfcheck

        def mutated(a, b):
            rows = [a[0] * b[0]]
            if len(a) > 1:
                rows.append(a[1] * b[0] + a[0] * b[1])
            if len(a) > 2:
                rows.append(a[2] * b[0] + 2.0 * a[1] * b[1] - a[0] * b[2])
            return models._stack(rows)

        monkeypatch.setattr(models, "_jet_product", mutated)
        monkeypatch.setattr(scores, "_jet_product", mutated)
        failed = [(name, message) for name, passed, message in selfcheck.run_checks()
                  if not passed]
        assert [name for name, _ in failed] == [
            "exact objective derivatives match central differences"]
        assert failed[0][1].startswith("ma1 pairwise derivative 2 off by")

    def test_trace_check_catches_a_scaled_trace_term(self, monkeypatch):
        # the 2 (T - 1) term of the AR(1) tr(D P D P) scaled by 1 + 1e-6 moves
        # the Wishart J, which the T = 1 and Monte Carlo checks of J miss
        import minscore.wishart as wishart
        from minscore import selfcheck

        mutated = source_mutant(wishart, "_derivative_traces", "square = (2.0 * (t - 1) +",
                                "square = (2.0 * (t - 1) * (1 + 1e-6) +")
        monkeypatch.setattr(wishart, "_derivative_traces", mutated)
        failed = [(name, message) for name, passed, message in selfcheck.run_checks()
                  if not passed]
        assert [name for name, _ in failed] == [
            "Wishart derivative traces and sensitivity match the dense precision derivative"]
        assert failed[0][1].startswith("ar1 tr(D P D P) off by")

    def test_basin_check_catches_a_wide_left_bracket(self, monkeypatch):
        # x_{b-2} for x_{b-1} as the left end of a lane's bracket: at the
        # second seed the bracket wraps to the last seed, and the lane falls
        # back to its seed instead of the minimum of its basin
        import minscore.inference as inference
        import minscore.optimize as optimize
        from minscore import selfcheck

        mutated = source_mutant(optimize, "minimize_lanes", "xs[best - 1]", "xs[best - 2]")
        for module in (optimize, inference, selfcheck):
            monkeypatch.setattr(module, "minimize_lanes", mutated)
        failed = [(name, message) for name, passed, message in selfcheck.run_checks()
                  if not passed]
        assert [name for name, _ in failed] == [
            "every lane ends at the minimum of its best grid basin"]
        assert "misses the minimum" in failed[0][1]

    def test_check_fails_a_broken_check_under_optimize(self):
        # python -O strips assert statements; a check whose MA(1) hyv constant
        # is off by 1e-3 must still be reported as failed
        script = (
            "import sys\n"
            "import minscore.scores as scores\n"
            "from minscore.cli import cli_main\n"
            "real = scores._terms\n"
            "def mutated(kind, model, t_len, theta, order=0):\n"
            "    coef, const = real(kind, model, t_len, theta, order)\n"
            "    if (kind, model) == (scores.EstimatorKind.HYV_UNIVARIATE, 'ma1'):\n"
            "        const = const * (1 + 1e-3)\n"
            "    return coef, const\n"
            "scores._terms = mutated\n"
            "sys.exit(cli_main(['check']))\n"
        )
        src = os.path.dirname(os.path.dirname(minscore.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stdout + done.stderr
        assert "FAIL  spectral MA(1) objectives match dense linear algebra" in done.stdout


class TestExitPaths:
    """Each failure of the command line: its exit code and its one line of stderr."""

    def test_config_line_without_equals_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("model = ar1\ngrid 0.3\n")
        assert cli_main(["table", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'grid 0.3'\n"

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert cli_main(["table", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {str(cfg)!r}: ")
        assert "No such file or directory" in err and err.count("\n") == 1

    def test_bad_grid_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["table", "--model", "ar1", "--grid", "0.3,abc", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bad grid value in '0.3,abc': could not convert string to float: 'abc'\n")
        assert not out.exists()

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        out = tmp_path / "x.csv"
        cfg.write_text(f"model = ar1\ngrid = 0.3\nnu = ten\nout = {out}\n")
        assert cli_main(["table", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: bad config value for nu: invalid literal for int() with base 10: 'ten'\n")
        assert not out.exists()

    @pytest.mark.parametrize("given", [["--model", "ar1"], ["--grid", "0.3"], []])
    def test_table_without_model_or_grid_exits_1(self, tmp_path, capsys, given):
        assert cli_main(["table", *given, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: table needs at least --model and --grid (flags or config file)\n")

    def test_unparsable_data_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0.1,0.2,0.3\n0.4,abc,0.6\n")
        assert cli_main(["fit", "--data", str(data), "--model", "ar1",
                         "--estimator", "full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse data file {str(data)!r}: ")
        assert "abc" in err and err.count("\n") == 1

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        from minscore import selfcheck

        def broken():
            raise AssertionError("synthetic mismatch")

        monkeypatch.setattr(selfcheck, "CHECKS", (("passes", lambda: None), ("fails", broken)))
        assert cli_main(["check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ("ok    passes\nFAIL  fails  (synthetic mismatch)\n"
                                "1/2 checks failed\n")
        assert captured.err == ""

    def test_runtime_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import minscore.cli as cli

        def fail(*args, **kwargs):
            raise RuntimeError("synthetic study failure")

        monkeypatch.setattr(cli, "run_experiment", fail)
        out = tmp_path / "x.csv"
        assert cli_main(TABLE_ARGS + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "runtime failure: synthetic study failure\n"
        assert not out.exists()
