"""CSV schema, SVG chart structure, and run_experiment aggregation."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from minscore import (
    CSV_HEADER,
    EstimatorKind,
    ExperimentConfig,
    ConfigError,
    ReportRow,
    emit_are_svg,
    emit_csv,
    fit,
    run_experiment,
    sample_ar1,
)


def make_row(model="ar1", param=0.5, kind=EstimatorKind.PAIRWISE_ML, rel=0.8):
    return ReportRow(
        model=model,
        param_true=param,
        estimator=kind,
        mean_est=param + 0.001,
        mean_sd=0.0097,
        are=rel,
        n_replicates=200,
        n_boundary=0,
        nu=200,
        t_len=50,
        seed=42,
    )


def fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports minscore from ``src``."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestEmitCsv:
    def test_header_is_the_row_fields_but_the_replicates(self):
        # the replicate tuples never reach the CSV
        names = [f.name for f in dataclasses.fields(ReportRow)]
        assert CSV_HEADER.split(",") == [n for n in names if n not in ("estimates", "sds")]
        assert names[-2:] == ["estimates", "sds"]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([make_row()], path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "ar1"
        assert float(row["param_true"]) == 0.5
        assert row["estimator"] == "pairwise"
        assert float(row["mean_est"]) == pytest.approx(0.501, abs=1e-9)
        assert float(row["mean_sd"]) == pytest.approx(0.0097)
        assert int(row["n_replicates"]) == 200
        assert int(row["seed"]) == 42

    def test_full_grid_row_count(self, tmp_path):
        # 19 grid values x 4 estimators = 76 rows, like a full study
        grid = [round(v, 1) for v in np.arange(-0.9, 1.0, 0.1)]
        rows = [
            make_row(param=p, kind=k)
            for p in grid
            for k in EstimatorKind
        ]
        path = tmp_path / "full.csv"
        emit_csv(rows, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 76
        assert lines[0] == CSV_HEADER

    def test_rows_sorted(self, tmp_path):
        rows = [
            make_row(param=0.5, kind=EstimatorKind.PAIRWISE_ML),
            make_row(param=-0.5, kind=EstimatorKind.FULL_ML),
            make_row(param=0.5, kind=EstimatorKind.FULL_ML),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(rows, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        keys = [(line.split(",")[0], float(line.split(",")[1]), line.split(",")[2])
                for line in lines]
        assert keys == sorted(keys)

    def test_io_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([make_row()], str(tmp_path / "no/such/dir/out.csv"))


class TestEmitSvg:
    def test_single_estimator_two_points(self, tmp_path):
        rows = [make_row(param=-0.5), make_row(param=0.5)]
        path = tmp_path / "one.svg"
        emit_are_svg(rows, path)
        tree = ET.parse(path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        points = polylines[0].attrib["points"].split()
        assert len(points) == 2

    def test_three_polylines_baseline_omitted(self, tmp_path):
        kinds = list(EstimatorKind)
        rows = [make_row(param=p, kind=k) for p in (-0.5, 0.0, 0.5) for k in kinds]
        path = tmp_path / "three.svg"
        emit_are_svg(rows, path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = ET.parse(path).getroot().findall(".//svg:polyline", ns)
        assert len(polylines) == 3  # full-ML baseline not drawn

    def test_values_clamped_into_axis_range(self, tmp_path):
        rows = [make_row(param=-0.5, rel=3.7), make_row(param=0.5, rel=0.4)]
        path = tmp_path / "clamp.svg"
        emit_are_svg(rows, path)
        content = path.read_text(encoding="utf-8")
        assert 'version="1.1"' in content and "xmlns" in content

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_are_svg([], tmp_path / "none.svg")

    def test_mixed_models_rejected(self, tmp_path):
        rows = [make_row(model="ar1"), make_row(model="ma1")]
        with pytest.raises(ValueError):
            emit_are_svg(rows, tmp_path / "mixed.svg")

    def test_baseline_only_rejected(self, tmp_path):
        rows = [make_row(param=p, kind=EstimatorKind.FULL_ML) for p in (-0.5, 0.5)]
        with pytest.raises(ValueError, match="^no non-baseline estimator rows to plot$"):
            emit_are_svg(rows, tmp_path / "baseline.svg")
        assert not (tmp_path / "baseline.svg").exists()

    def test_single_value_is_centred(self, tmp_path):
        # one true value spans no range; the axis runs half a unit either side
        path = tmp_path / "one.svg"
        emit_are_svg([make_row(param=0.3, rel=0.8)], path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(path).getroot()
        [polyline] = root.findall(".//svg:polyline", ns)
        x, _ = polyline.attrib["points"].split(",")
        assert float(x) == 60 + 0.5 * (640 - 60 - 130)  # the middle of the plot area
        x_labels = [t.text for t in root.findall(".//svg:text", ns)
                    if t.get("text-anchor") == "middle"]
        assert x_labels == ["-0.2", "0.8"]

    def test_unwritable_svg_names_the_path(self, tmp_path):
        path = tmp_path / "no" / "such" / "x.svg"
        with pytest.raises(OSError, match=f"^cannot write SVG to {re.escape(repr(str(path)))}: "):
            emit_are_svg([make_row()], str(path))


class TestRunExperiment:
    def test_single_replicate_aggregation_identity(self):
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.0,), nu=30, t_len=8, replicates=1,
            mc_b=50, seed=7,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 4  # one per estimator
        seed_root = np.random.SeedSequence(entropy=7, spawn_key=(0, 0))
        sample_seed, mc_seed = seed_root.spawn(2)
        y = sample_ar1(0.0, 30, 8, sample_seed)
        by_kind = {row.estimator: row for row in rows}
        direct = fit(y, EstimatorKind.PAIRWISE_ML, "ar1")
        assert by_kind[EstimatorKind.PAIRWISE_ML].mean_est == pytest.approx(
            direct.estimate, abs=1e-12
        )
        assert by_kind[EstimatorKind.FULL_ML].are == 1.0

    @pytest.mark.parametrize("seed,grid_index,rep_index",
                             [(0, 0, 0), (7, 2, 13), (20260808, 4, 199)])
    def test_replicate_seed_is_the_first_spawned_child(self, monkeypatch, seed, grid_index,
                                                       rep_index):
        # the replicate's seed is built directly as the first child that the
        # spawn of its (grid point, replicate) key returned, which the
        # reference tables were drawn from
        import minscore.simulate as sim

        drawn = []
        real_sample = sim.sample_series
        monkeypatch.setattr(sim, "sample_series",
                            lambda *args: drawn.append(args[-1]) or real_sample(*args))
        cfg = ExperimentConfig(model="ar1", param_grid=(0.1,), nu=4, t_len=3, seed=seed)
        sim._sample_replicate(cfg, 0.1, grid_index, rep_index)
        (child,) = np.random.SeedSequence(entropy=seed,
                                          spawn_key=(grid_index, rep_index)).spawn(1)
        assert np.array_equal(drawn[0].generate_state(8), child.generate_state(8))
        assert drawn[0].spawn_key == child.spawn_key

    def test_baseline_always_run(self):
        cfg = ExperimentConfig(
            model="ma1", param_grid=(0.2,), nu=20, t_len=6, replicates=2,
            mc_b=50, seed=8, estimators=(EstimatorKind.PAIRWISE_ML,),
        )
        rows = run_experiment(cfg)
        kinds = {row.estimator for row in rows}
        assert kinds == {EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML}

    def test_deterministic_across_workers(self):
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.3,), nu=25, t_len=6, replicates=8,
            mc_b=50, seed=9,
        )
        rows1 = run_experiment(cfg, workers=1)
        rows4 = run_experiment(cfg, workers=4)
        assert rows1 == rows4

    def test_no_boundary_hits_at_moderate_truth(self):
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.5,), nu=60, t_len=12, replicates=20,
            mc_b=50, seed=10,
        )
        rows = run_experiment(cfg)
        assert all(row.n_boundary == 0 for row in rows)
        assert all(row.n_replicates == 20 for row in rows)

    @pytest.mark.parametrize("model,kinds,reductions", [
        # the DST-I rotation once for full and hyv, the inverse Cholesky factor
        # of S and its rotation for the Wishart kind
        ("ma1", tuple(EstimatorKind),
         ["ma1_sine_transform", "cholesky", "ma1_sine_transform"]),
        # first differences once for full and pairwise, second for hyv, and
        # those of full on the rows of the inverse Cholesky factor of S
        ("ar1", tuple(EstimatorKind),
         ["_ar1_full", "_ar1_hyv", "cholesky", "_ar1_full"]),
    ])
    def test_replicate_reduces_each_family_once(self, monkeypatch, replace_reducer, model, kinds,
                                                reductions):
        import minscore.scores as scores
        import minscore.simulate as sim

        calls = []

        def recorded(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(scores, "ma1_sine_transform",
                            recorded("ma1_sine_transform", scores.ma1_sine_transform))
        monkeypatch.setattr(np.linalg, "cholesky", recorded("cholesky", np.linalg.cholesky))
        for name in ("_ar1_full", "_ar1_hyv"):  # one wrapper per shared reducer
            replace_reducer(getattr(scores, name), recorded(name, getattr(scores, name)))
        cfg = ExperimentConfig(model=model, param_grid=(0.4,), nu=20, t_len=8,
                               replicates=1, estimators=kinds)
        reduction = sim._reduce_replicate(cfg, 0.4, 0, 0, sim._fit_kinds(cfg))
        [records] = sim._fit_block(sim._fit_kinds(cfg), [reduction])
        assert set(records) == set(map(EstimatorKind, kinds))
        assert calls == reductions

    @pytest.mark.parametrize("nu,estimators,t_len,loaded", [
        (12, "full,pairwise,hyv,hyv-wishart", 8, False),  # nu >= T: the cached basis
        (6, "full,pairwise,hyv", 8, False),  # nu < T <= 256: the cached basis still
        (6, "full,pairwise,hyv", 300, True),  # T^2 > BASIS_FLOATS and nu < T: the FFT
    ])
    def test_fft_is_loaded_only_below_the_basis_size(self, nu, estimators, t_len, loaded):
        # numpy loads numpy.fft on first use; a study whose basis fits in
        # BASIS_FLOATS, or whose series hold at least T^2 floats, rotates
        # them by the basis and never pays for it
        code = (
            "import sys, minscore\n"
            f"cfg = minscore.ExperimentConfig(model='ma1', param_grid=(0.4,), nu={nu}, "
            f"t_len={t_len}, replicates=2, mc_b=50, seed=3, "
            f"estimators='{estimators}'.split(','))\n"
            "minscore.run_experiment(cfg)\n"
            "print('numpy.fft' in sys.modules)\n"
        )
        assert fresh_python(code).split() == [str(loaded)]

    def test_study_runs_on_the_calling_thread(self):
        # the study starts no thread and loads no pool, whatever ``workers``
        # says; the import pays for neither the oracles nor SciPy
        code = (
            "import sys, threading, minscore\n"
            "print([m in sys.modules for m in ('scipy', 'minscore.selfcheck')])\n"
            "cfg = minscore.ExperimentConfig(model='ar1', param_grid=(-0.3, 0.6), nu=20, "
            "t_len=6, replicates=3, seed=13)\n"
            "minscore.run_experiment(cfg, workers=2)\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        assert fresh_python(code).splitlines() == ["[False, False]", "False 1"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_is_rejected(self, workers):
        cfg = ExperimentConfig(model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=2,
                               estimators=(EstimatorKind.FULL_ML,))
        with pytest.raises(ConfigError, match=rf"^workers must be >= 1, got {workers}$"):
            run_experiment(cfg, workers=workers)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match=r"\(-1, 1\)"):
            ExperimentConfig(model="ar1", param_grid=(1.5,)).validate()
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig(model="ar1", param_grid=(0.1,), replicates=0).validate()
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -3"):
            ExperimentConfig(model="ar1", param_grid=(0.1,), seed=-3).validate()
        with pytest.raises(ConfigError, match="nu >= t"):
            ExperimentConfig(model="ar1", param_grid=(0.1,), nu=10, t_len=20).validate()
        with pytest.raises(ConfigError, match="mc-b"):
            ExperimentConfig(model="ar1", param_grid=(0.1,), nu=52, t_len=50,
                             mc_b=10).validate()
        # without the Wishart estimator a small nu is fine
        ExperimentConfig(
            model="ar1", param_grid=(0.1,), nu=10, t_len=20,
            estimators=(EstimatorKind.FULL_ML,),
        ).validate()

    @pytest.mark.parametrize("grid", [(0.5, 0.5), (0.5, 0.50000001), (-0.2, 0.3, -0.2)])
    def test_config_rejects_grid_values_that_print_alike(self, grid):
        # rows are told apart only by the 6-digit param_true
        with pytest.raises(ConfigError, match=r"grid value .* repeats"):
            ExperimentConfig(model="ar1", param_grid=grid, nu=20, t_len=10).validate()
        ExperimentConfig(model="ar1", param_grid=(0.5, 0.500001), nu=20, t_len=10,
                         estimators=(EstimatorKind.FULL_ML,)).validate()

    @pytest.mark.parametrize("nu", [0, 1])
    def test_config_needs_two_series(self, nu):
        # every sd averages over series, so a one-series study could only fail
        with pytest.raises(ConfigError, match="nu >= 2"):
            ExperimentConfig(
                model="ar1", param_grid=(0.5,), nu=nu, t_len=5,
                estimators=(EstimatorKind.FULL_ML,),
            ).validate()
        ExperimentConfig(
            model="ar1", param_grid=(0.5,), nu=2, t_len=5,
            estimators=(EstimatorKind.FULL_ML,),
        ).validate()

    @pytest.mark.parametrize("name,value", [
        ("nu", 20.0), ("nu", 20.7), ("t_len", 5.5), ("replicates", 2.0), ("seed", 1.5),
        ("replicates", True), ("seed", False),
    ])
    def test_config_rejects_non_integer_sizes(self, name, value):
        # nu=20.7, t_len=5.5 once sampled 20 series of length 5 and printed
        # the fractions in the CSV; replicates=2.0 and seed=1.5 failed at run
        # time, and replicates=True ran a one-replicate study
        cfg = ExperimentConfig(model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=2,
                               estimators=(EstimatorKind.FULL_ML,))
        setattr(cfg, name, value)
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {value}$"):
            run_experiment(cfg)
        # numpy integers are integers
        setattr(cfg, name, np.int64(getattr(ExperimentConfig("ar1", (0.2,)), name)))
        cfg.validate()

    def test_rows_carry_their_replicates(self):
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.2, 0.95), nu=25, t_len=6, replicates=5,
            mc_b=50, seed=11,
        )
        rows = run_experiment(cfg)
        for row in rows:
            assert isinstance(row.estimates, tuple) and isinstance(row.sds, tuple)
            assert len(row.estimates) == len(row.sds)
            assert row.n_replicates == len(row.estimates) + row.n_boundary == 5
            assert row.mean_est == float(np.mean(row.estimates))
            assert row.mean_sd == float(np.mean(row.sds))
        assert any(row.n_boundary for row in rows)
        assert len({hash(row) for row in rows}) == len(rows)

    @pytest.mark.parametrize("model", ["ar1", "ma1"])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, model):
        # a block of one replicate and blocks that split a grid point give the
        # rows, replicate tuples included, of one block holding the whole study
        import minscore.simulate as sim

        cfg = ExperimentConfig(model=model, param_grid=(-0.4, 0.5), nu=12, t_len=6,
                               replicates=10, seed=14)
        default = sim.RETAINED_FLOATS
        reduced = sim._reduce_replicate(cfg, 0.5, 0, 0, sim._fit_kinds(cfg))
        floats = reduced.floats + reduced.fit_floats
        sizes = []
        real_fit_block = sim._fit_block

        def fit_block(kinds, reduced):
            sizes.append(len(reduced))
            return real_fit_block(kinds, reduced)

        def study(budget, fail=False):
            monkeypatch.setattr(sim, "RETAINED_FLOATS", budget)
            sizes.clear()
            if not fail:
                return run_experiment(cfg), list(sizes)
            with pytest.warns(RuntimeWarning, match="1/10 replicates failed"):
                return run_experiment(cfg), list(sizes)

        monkeypatch.setattr(sim, "_fit_block", fit_block)
        whole = study(default)
        assert whole[1] == [20]
        assert {row.estimator for row in whole[0]} == set(EstimatorKind)
        assert study(1) == (whole[0], [1] * 20)
        assert study(3 * floats) == (whole[0], [3] * 6 + [2])
        # a failed replicate holds no statistics, so its block takes one more
        real_reduce = sim._reduce_replicate

        def reduce(cfg, theta0, grid_index, rep_index, kinds):
            if (grid_index, rep_index) == (0, 4):
                raise RuntimeError("synthetic replicate failure")
            return real_reduce(cfg, theta0, grid_index, rep_index, kinds)

        monkeypatch.setattr(sim, "_reduce_replicate", reduce)
        failing = study(default, fail=True)
        assert failing[1] == [20]
        assert study(3 * floats, fail=True) == (failing[0], [3, 4, 3, 3, 3, 3, 1])

    def test_scattered_failures_tolerated(self, monkeypatch):
        import minscore.simulate as sim

        real = sim._reduce_replicate

        def flaky(cfg, theta0, grid_index, rep_index, kinds):
            if rep_index == 3:
                raise RuntimeError("synthetic replicate failure")
            return real(cfg, theta0, grid_index, rep_index, kinds)

        monkeypatch.setattr(sim, "_reduce_replicate", flaky)
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=20,
            mc_b=50, seed=12, estimators=(EstimatorKind.FULL_ML,),
        )
        with pytest.warns(RuntimeWarning, match="1/20 replicates failed"):
            rows = run_experiment(cfg)
        assert rows[0].n_replicates == 19

    def test_failure_messages_name_the_first_cause_of_each_type(self, monkeypatch):
        import minscore.simulate as sim

        real = sim._reduce_replicate

        causes = {
            2: RuntimeError("synthetic replicate failure 2"),
            4: RuntimeError("synthetic replicate failure 4"),
            6: ValueError("bad replicate 6"),
            8: ValueError("bad replicate 8"),
        }

        def failing(cfg, theta0, grid_index, rep_index, kinds):
            if rep_index in causes:
                raise causes[rep_index]
            return real(cfg, theta0, grid_index, rep_index, kinds)

        monkeypatch.setattr(sim, "_reduce_replicate", failing)
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=20,
            mc_b=50, seed=13, estimators=(EstimatorKind.FULL_ML,),
        )
        with pytest.raises(RuntimeError) as info:
            run_experiment(cfg, workers=2)
        assert str(info.value) == (
            "4/20 replicates failed at ar1 parameter 0.2; "
            "first RuntimeError: synthetic replicate failure 2; "
            "first ValueError: bad replicate 6"
        )
        # up to 10% of failures are tolerated, with one warning per grid point
        for rep_index in (4, 6, 8):
            del causes[rep_index]
        cfg.replicates = 10
        cfg.param_grid = (0.2, 0.4)
        with pytest.warns(RuntimeWarning) as caught:
            rows = run_experiment(cfg)
        assert [str(w.message) for w in caught] == [
            f"1/10 replicates failed at ar1 parameter {theta}; "
            "first RuntimeError: synthetic replicate failure 2"
            for theta in (0.2, 0.4)
        ]
        assert [row.n_replicates for row in rows] == [9, 9]

    def test_lane_fit_failure_fails_its_replicate_alone(self, monkeypatch):
        # an exception that fit_lanes returns for a lane is that replicate's
        # outcome: its other kinds are dropped with it, the others are kept
        import minscore.simulate as sim

        real = sim.fit_lanes

        def fit_lanes(reductions, kind):
            records = real(reductions, kind)
            if kind is EstimatorKind.PAIRWISE_ML:
                records[1] = RuntimeError("synthetic lane failure")
            return records

        monkeypatch.setattr(sim, "fit_lanes", fit_lanes)
        cfg = ExperimentConfig(model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=20,
                               seed=14, estimators=("full", "pairwise"))
        with pytest.warns(RuntimeWarning) as caught:
            rows = run_experiment(cfg)
        assert [str(w.message) for w in caught] == [
            "1/20 replicates failed at ar1 parameter 0.2; "
            "first RuntimeError: synthetic lane failure"]
        assert [row.n_replicates for row in rows] == [19, 19]
        monkeypatch.setattr(sim, "fit_lanes", real)
        full = run_experiment(cfg)[0].estimates
        assert rows[0].estimates == full[:1] + full[2:]

    @pytest.mark.parametrize("kind,message", [
        ("full", "no usable full-ML baseline at parameter 0.2"),
        ("pairwise", "estimator pairwise produced no usable replicates at parameter 0.2"),
    ])
    def test_all_boundary_hits_abort(self, monkeypatch, kind, message):
        # a kind whose every replicate hits the search bound has no row to give
        import minscore.simulate as sim

        real = sim.fit_lanes

        def fit_lanes(reductions, fitted):
            records = real(reductions, fitted)
            if fitted is EstimatorKind(kind):
                records = [dataclasses.replace(r, sd=None, boundary_flag=True) for r in records]
            return records

        monkeypatch.setattr(sim, "fit_lanes", fit_lanes)
        cfg = ExperimentConfig(model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=4,
                               seed=15, estimators=("full", "pairwise"))
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_experiment(cfg)

    def test_config_rejects_an_empty_grid_and_mc_b_below_one(self):
        with pytest.raises(ConfigError, match="^param_grid must contain at least one value$"):
            ExperimentConfig(model="ar1", param_grid=()).validate()
        with pytest.raises(ConfigError, match="^mc-b must be positive, got 0$"):
            ExperimentConfig(model="ar1", param_grid=(0.1,), mc_b=0).validate()

    def test_widespread_failures_abort(self, monkeypatch):
        import minscore.simulate as sim

        real = sim._reduce_replicate

        def broken(cfg, theta0, grid_index, rep_index, kinds):
            if rep_index < 5:
                raise RuntimeError("synthetic replicate failure")
            return real(cfg, theta0, grid_index, rep_index, kinds)

        monkeypatch.setattr(sim, "_reduce_replicate", broken)
        cfg = ExperimentConfig(
            model="ar1", param_grid=(0.2,), nu=20, t_len=5, replicates=20,
            mc_b=50, seed=13, estimators=(EstimatorKind.FULL_ML,),
        )
        with pytest.raises(RuntimeError, match="replicates failed"):
            run_experiment(cfg)
