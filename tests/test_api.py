"""The public names of the package and of each layer module, and what importing
the package loads."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter

import pytest

import minscore
from minscore.optimize import Lanes
from minscore.scores import SeriesObjective

MODULES = ["minscore"] + [
    f"minscore.{info.name}"
    for info in pkgutil.iter_modules(minscore.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    # tooling that walks __all__ (e.g. tracing wrappers) calls getattr on each
    # entry, so a name left behind after a deletion must fail here
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def _tracer_layers() -> list[str]:
    # the LAYERS of the benchmark tracer, read without importing it
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracing.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "LAYERS" for target in node.targets)]
    return list(ast.literal_eval(value))


@pytest.mark.parametrize("layer", _tracer_layers())
def test_tracer_layers_resolve(layer):
    # the traced benchmark run imports minscore.<layer> and wraps the
    # functions its __all__ names, so a moved or renamed module fails here
    module = importlib.import_module(f"minscore.{layer}")
    assert module.__all__ and [n for n in module.__all__ if not hasattr(module, n)] == []


PUBLIC_NAMES = {
    # models
    "ma1_eigenvalues", "ma1_sine_transform", "sample_ar1", "sample_ma1", "sample_series",
    "sum_of_squares",
    # optimize
    "MinimizationError", "minimize_lanes",
    # scores
    "DegenerateDataError", "EstimatorKind", "objective_lanes", "series_objective",
    "wishart_context",
    # wishart
    "wishart_components",
    # inference
    "EstimateRecord", "SeriesReduction", "are", "fit", "fit_lanes",
    "sample_size_error",
    # simulate and report
    "ConfigError", "ExperimentConfig", "ReportRow", "run_experiment", "CSV_HEADER",
    "emit_are_svg", "emit_csv",
}


def test_package_surface_is_pinned():
    # a name joins or leaves the package's surface only with an edit here;
    # the dense oracles are in minscore.selfcheck, not on it
    assert len(PUBLIC_NAMES) == 27
    assert set(minscore.__all__) == PUBLIC_NAMES


OPTIONS = {
    # the parameter names of the calls whose settable values were trimmed:
    # an option joins one of them only with an edit here
    "fit": ["series", "kind", "model"],
    "fit_lanes": ["reductions", "kind"],
    "sample_size_error": ["kind", "model", "nu", "t_len", "t_name"],
    "SeriesReduction": ["series", "kinds", "model"],
    "emit_are_svg": ["rows", "path"],
    "ma1_sine_transform": ["x"],
    "run_experiment": ["cfg", "workers"],
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_option_surface_is_pinned(name):
    assert list(inspect.signature(getattr(minscore, name)).parameters) == OPTIONS[name]


FIELDS = {
    # the fields of the lane data model: every lane is
    # pooled . coef(theta) + rows * const(theta), so a per-lane field joins
    # only with an edit here
    Lanes: ["terms", "pooled", "rows"],
    SeriesObjective: ["kind", "model", "t_len", "stats", "pooled", "rows", "moments"],
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_lane_fields_are_pinned(cls):
    assert [field.name for field in dataclasses.fields(cls)] == FIELDS[cls]


# a line that branches on the model or the kind (ROADMAP aim 2)
DISPATCH = re.compile(r'model == "|== "(ar1|ma1)"|is EstimatorKind\.|EstimatorKind\.\w+ in '
                      r'|== \{EstimatorKind|kind in \(EstimatorKind|_spectral\(')


def test_dispatch_sites_are_pinned():
    # the model/kind branches of the runtime modules (all but the oracles of
    # selfcheck): one joins only with an edit here, like a name or an option
    package = os.path.dirname(minscore.__file__)
    sites = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "selfcheck.py":
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                sites += [f"{name}:{n}" for n, line in enumerate(handle, 1)
                          if DISPATCH.search(line)]
    assert len(sites) <= 7, sites


CHECKS = [
    # the oracles of ``minscore check``, in order: one joins or leaves only
    # with an edit here, so a deleted check cannot go unnoticed
    "precision matrices invert covariances",
    "every objective matches its dense form from the covariance",
    "exact objective derivatives match central differences",
    "Wishart derivative traces and sensitivity match the dense precision derivative",
    "Wishart objective matches its dense definition",
    "exact Wishart variability matches inverse chi-square and Monte Carlo",
    "AR(1) pairwise fit and closed form match numeric argmins",
    "batched grid matches pointwise objective values",
    "shared reductions and study lanes match standalone fits",
    "fits are unchanged by time reversal and mirrored by alternating signs",
    "samplers are seed-deterministic",
    "every lane ends at the minimum of its best grid basin",
    "scalar minimizer finds quadratic minimum",
]


def test_check_list_is_pinned():
    from minscore import selfcheck

    assert [name for name, _ in selfcheck.CHECKS] == CHECKS


def _modules_after(code: str, package: str = "scipy") -> tuple[list[str], str]:
    # run ``code`` in a fresh interpreter and list the modules of ``package``
    # it loaded
    script = code + (
        "\nimport sys"
        f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    src = os.path.dirname(os.path.dirname(minscore.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1]), done.stdout


def test_import_loads_no_scipy():
    modules, _ = _modules_after("import minscore, minscore.cli")
    assert modules == []


def test_import_loads_no_oracles():
    # the dense oracles load only with the check command or an explicit import
    modules, _ = _modules_after("import minscore, minscore.cli", "minscore")
    assert "minscore.cli" in modules and "minscore.selfcheck" not in modules


def test_check_command_loads_no_scipy():
    # what ``python -m minscore check`` runs, with its exit code kept
    modules, out = _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['minscore', 'check']\n"
        "try:\n"
        "    runpy.run_module('minscore', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert modules == []
    assert "all" in out and "checks passed" in out
