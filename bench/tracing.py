"""In-memory span tracing around the public functions of each minscore module.

The program is not edited: :meth:`Tracer.install` replaces every public
function of the layer modules with a wrapper that records a span, and patches
every module attribute bound to the original function, including the
``from .x import y`` bindings in ``simulate``, ``inference``, ``scores`` and
``wishart``.  A span holds its name, start, end, parent and thread.  Spans
opened on a worker thread with nothing open on that thread take the innermost
open ``run_experiment`` span as parent, so pool work is charged to the study
that submitted it.

Self time is a span's duration minus the part of its interval covered by its
child spans (the union of their intervals, so overlapping children on worker
threads are not double counted).

The Wishart Monte Carlo step is traced as one opaque span: calls it makes
into other functions record nothing, so its draws count as its own work and
not as model sampling.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

from workloads import ESTIMATORS_ALL as KINDS

LAYERS = ("models", "scores", "optimize", "wishart", "inference", "simulate", "report", "cli")

OPAQUE = ("wishart.hw_grad_samples",)

# (name, unit, better); the order is the order of the printed report.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("wishart.mc_s", "s", "lower"),
        ("wishart.mc_draws", "count", "lower"),
        ("wishart.estimate_s", "s", "lower"),
        ("wishart.score_calls", "count", "lower"),
        ("models.precision_calls", "count", "lower"),
        ("models.precision_s", "s", "lower"),
        ("models.sample_s", "s", "lower"),
        ("scores.objective_calls", "count", "lower"),
        ("scores.objective_s", "s", "lower"),
        ("optimize.minimize_calls", "count", "lower"),
        ("optimize.evals_per_minimize", "count", "lower"),
        ("optimize.minimize_s", "s", "lower"),
    ]
    + [(f"inference.fit_s.{k}", "s", "lower") for k in KINDS]
    + [(f"inference.sd_s.{k}", "s", "lower") for k in KINDS]
    + [
        ("simulate.busy_s", "s", "lower"),
        ("simulate.parallel_eff", "ratio", "higher"),
        ("report.emit_s", "s", "lower"),
        ("report.csv_bytes", "B", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("failed_frac", "ratio", "lower"),
        ("boundary_frac", "ratio", "lower"),
    ]
)


class Span:
    __slots__ = ("id", "name", "tag", "start", "end", "parent", "thread")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.tag = None
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None

    def as_row(self) -> list:
        return [getattr(self, slot) for slot in self.__slots__]


class Tracer:
    """Collects spans in memory; one instance per traced repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._studies: list[int] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif threading.current_thread() is not threading.main_thread() and self._studies:
            parent = self._studies[-1]
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "optimize.minimize_scalar":
            # The tag counts objective evaluations made by this minimisation.
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                if getattr(tracer._local, "opaque", False):
                    return fn(f, *args, **kwargs)
                span = tracer.open(name)
                span.tag = 0

                def counted(x):
                    span.tag += 1
                    return f(x)

                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer.close(span)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "opaque", False):
                return fn(*args, **kwargs)
            span = tracer.open(name)
            tracer._local.opaque = name in OPAQUE
            if name == "simulate.run_experiment":
                tracer._studies.append(span.id)
            elif name == "inference.fit":
                span.tag = str(args[1] if len(args) > 1 else kwargs["kind"])
            elif name == "wishart.hw_grad_samples":
                span.tag = int(args[4] if len(args) > 4 else kwargs["n_draws"])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.opaque = False
                if name == "simulate.run_experiment":
                    tracer._studies.pop()
                tracer.close(span)

        return wrapper

    def install(self, package_name: str) -> None:
        """Wrap the public functions of every layer module of the package."""
        layers = {
            layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS
        }
        loaded = [
            module
            for name, module in sys.modules.items()
            if name == package_name or name.startswith(package_name + ".")
        ]
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of the union of the children's intervals within [start, end]."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children[s.id]) for s in spans
    }


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see PER_LAYER)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1

    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        metrics[s.name.split(".", 1)[0] + ".self_s"] += own[s.id]

    fits = [s for s in spans if s.name == "inference.fit"]
    sd_parts = defaultdict(float)
    for s in spans:
        if s.name.startswith("inference.godambe_") and s.parent in by_id:
            parent = by_id[s.parent]
            if parent.name == "inference.fit":
                sd_parts[parent.id] += s.end - s.start
    data_samples = [s for s in spans if s.name == "models.sample_series"]
    minimize = [s for s in spans if s.name == "optimize.minimize_scalar"]
    study_s = dur["simulate.run_experiment"]
    busy = sum(s.end - s.start for s in fits + data_samples)

    metrics.update(
        {
            "wishart.mc_s": dur["wishart.hw_grad_samples"],
            "wishart.mc_draws": sum(
                s.tag for s in spans if s.name == "wishart.hw_grad_samples"
            ),
            "wishart.estimate_s": dur["wishart.hw_estimate"],
            "wishart.score_calls": calls["wishart.hw_score"],
            "models.precision_calls": calls["models.ar1_precision"]
            + calls["models.ma1_precision"],
            "models.precision_s": dur["models.ar1_precision"] + dur["models.ma1_precision"],
            "models.sample_s": sum(s.end - s.start for s in data_samples),
            "scores.objective_calls": calls["scores.score_per_series"],
            "scores.objective_s": dur["scores.score_per_series"],
            "optimize.minimize_calls": len(minimize),
            "optimize.evals_per_minimize": (
                sum(s.tag for s in minimize) / len(minimize) if minimize else 0.0
            ),
            "optimize.minimize_s": sum(own[s.id] for s in minimize),
            "simulate.busy_s": busy,
            "simulate.parallel_eff": busy / (workers * study_s) if study_s > 0 else 0.0,
            "report.emit_s": dur["report.emit_csv"] + dur["report.emit_are_svg"],
            "cli.overhead_s": (
                dur["cli.cli_main"] - study_s if calls["cli.cli_main"] else 0.0
            ),
        }
    )
    for kind in KINDS:
        mine = [s for s in fits if s.tag == kind]
        sd = sum(sd_parts[s.id] for s in mine)
        metrics[f"inference.sd_s.{kind}"] = sd
        metrics[f"inference.fit_s.{kind}"] = sum(s.end - s.start for s in mine) - sd
    return metrics


def top_self_times(spans: list[Span], n: int = 8) -> list[tuple[str, float]]:
    """The ``n`` span names with the largest summed self time."""
    own = self_times(spans)
    by_name = defaultdict(float)
    for s in spans:
        by_name[s.name] += own[s.id]
    return sorted(by_name.items(), key=lambda item: -item[1])[:n]
