"""Spans around the public functions of the wann modules.

The traced run wraps each function listed in TARGETS at every module
attribute that holds it, because callers look functions up in their own
module (``wann.training`` imports ``adam_step`` by name, so the wrapper must
sit on ``wann.training.adam_step`` as well as on ``wann.nn.adam_step``).
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
figures once the run is over, and the wrappers are restored when the
``instrumented`` block exits. The wrappers' own bookkeeping (making a span,
running its attribute hook) happens inside the caller's span; it is measured
and left out of every span's duration, so self times hold no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import statistics
import time

MODULES = ("wann", "wann.nn", "wann.training", "wann.baselines",
           "wann.discrepancy", "wann.data", "wann.harness", "wann.results",
           "wann.svgplot", "wann.cli")

_MARK = "__perfbench_wrapped__"


def _gemm_flops(net, rows: int) -> int:
    """Matmul FLOPs of one forward plus backward pass of ``net``.

    Forward and the weight gradient cost 2*rows*in*out each; the input
    gradient is taken for every layer but the first.
    """
    total = 0
    for k, layer in enumerate(net.layers):
        fan_in, fan_out = layer.weights.shape
        total += 2 * rows * fan_in * fan_out * (3 if k else 2)
    return total


def _params(net) -> int:
    return sum(layer.weights.size + layer.biases.size for layer in net.layers)


def _adam_attrs(a, result):
    return {"params": _params(a["net"])}


def _wann_step_attrs(a, result):
    model, rows = a["model"], len(a["X"])
    nets = (model.task, model.adversary, model.weighter)
    return {"flops": sum(_gemm_flops(net, rows) for net in nets)}


def _forward_attrs(a, result):
    return {"net": id(a["net"])}


def _epochs_attrs(a, result):
    return {"epochs": a["config"].epochs}


def _fit_wann_attrs(a, result):
    return {"epochs": a["config"].epochs, "task_net": id(a["model"].task)}


def _pretrain_attrs(a, result):
    return {"epochs": a["config"].pretrain_epochs}


def _load_csv_attrs(a, result):
    # one cell per feature, plus the label and (for a TrainingSet) domain tag
    columns = result.X.shape[1] + 1 + (1 if hasattr(result, "is_target")
                                       else 0)
    return {"cells": len(result) * columns}


def _kmm_attrs(a, result):
    m, n = len(a["source_X"]), len(a["target_X"])
    return {"kernel_bytes": 8 * (m * m + m * n)}


def _kliep_attrs(a, result):
    trace = a.get("objective_trace")
    return {} if trace is None else {"iters": len(trace) - 1}


# (defining module, function, attribute hook run on the bound arguments)
TARGETS = (
    ("wann.nn", "forward", _forward_attrs),
    ("wann.nn", "weighted_mse_grad", None),
    ("wann.nn", "adam_step", _adam_attrs),
    ("wann.nn", "fit_regression", _epochs_attrs),
    ("wann.training", "wann_step", _wann_step_attrs),
    ("wann.training", "fit_wann", _fit_wann_attrs),
    ("wann.training", "pretrain_weighter", _pretrain_attrs),
    ("wann.baselines", "uniform_fit", None),
    ("wann.baselines", "target_only_fit", None),
    ("wann.baselines", "median_pairwise_distance", None),
    ("wann.baselines", "kmm_weights", _kmm_attrs),
    ("wann.baselines", "kliep_weights", _kliep_attrs),
    ("wann.discrepancy", "estimate_y_discrepancy", None),
    ("wann.data", "load_csv", _load_csv_attrs),
    ("wann.data", "save_csv", None),
    ("wann.data", "gen_mixture_shift", None),
    ("wann.harness", "run_experiment", None),
    ("wann.harness", "run_method", None),
    ("wann.harness", "export_results", None),
    ("wann.harness", "emit_plot_data", None),
    ("wann.cli", "main", None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "hidden", "parent", "run",
                 "attrs")

    def __init__(self, span_id, name, parent, run):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        # tracing bookkeeping of the spans below this one, inside its window
        self.hidden = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start - self.hidden

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "hidden": self.hidden, "parent": self.parent,
                "run": self.run, "attrs": self.attrs}


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run.

    ``run`` labels the spans of the pass (or set-up round) in progress.
    ``hidden`` sums the seconds every wrapper has spent on its own
    bookkeeping so far.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "unset"
        self.hidden = 0.0
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, attrs=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1].id if self._stack else None
            span = Span(next(self._ids), name, parent, self.run)
            self._stack.append(span)
            span.start = time.perf_counter()
            self.hidden += span.start - entered
            hidden_at_start = self.hidden
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.hidden = self.hidden - hidden_at_start
                self._stack.pop()
                self.spans.append(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.attrs = attrs(bound, result)
            self.hidden += time.perf_counter() - span.end
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


def _modules():
    return [importlib.import_module(name) for name in MODULES]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every TARGETS function at each attribute holding it."""
    modules = _modules()
    saved = []
    try:
        for module_name, fn_name, attrs in TARGETS:
            fn = getattr(importlib.import_module(module_name), fn_name)
            wrapper = tracer.wrap(f"{module_name[5:]}.{fn_name}", fn, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        yield
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def leftover_wrappers() -> list[str]:
    """Module attributes still holding a benchmark wrapper."""
    return [f"{module.__name__}.{key}" for module in _modules()
            for key, value in vars(module).items()
            if getattr(value, _MARK, False)]


def nesting_violations(spans: list[dict]) -> int:
    """Spans (as ``Span.as_dict``) outside their parent or its run label."""
    by_id = {span["id"]: span for span in spans}
    bad = 0
    for span in spans:
        if span["end"] < span["start"]:
            bad += 1
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if (parent is None or parent["run"] != span["run"]
                or span["start"] < parent["start"]
                or span["end"] > parent["end"]):
            bad += 1
    return bad


# Counts that must repeat exactly in every traced pass of one run.
EXACT_COUNTS = ("nn.adam_step_calls", "nn.params_per_adam_step",
                "nn.forward_calls", "nn.flops_per_step",
                "training.wann_step_calls", "baselines.kmm_kernel_bytes",
                "baselines.kliep_iters", "discrepancy.ascent_steps",
                "data.load_csv_cells", "harness.artifact_bytes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Pass:
    """Index over the spans of one traced pass or set-up round."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
        self.by_id = {span.id: span for span in spans}

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def attr(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.named(name))

    def self_time(self, span: Span) -> float:
        return span.duration - sum(child.duration
                                   for child in self.children.get(span.id, []))

    def under(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        found = []
        for span in self.named(name):
            parent = self.by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = self.by_id.get(parent.parent)
            if parent is not None:
                found.append(span)
        return found

    def task_forwards(self) -> list[Span]:
        """``forward`` calls ``fit_wann`` makes itself on its task net h."""
        return [span for span in
                self.direct_children("nn.forward", "training.fit_wann")
                if span.attrs.get("net")
                == self.by_id[span.parent].attrs.get("task_net")]

    def direct_children(self, name: str, parent_name: str) -> list[Span]:
        return [span for span in self.named(name)
                if span.parent is not None
                and self.by_id[span.parent].name == parent_name]


def _pass_metrics(p: _Pass, wall: float, counts: dict) -> dict:
    """Per-pass totals, shares and counts; medians are taken across passes."""
    adam_calls = len(p.named("nn.adam_step"))
    wann_calls = len(p.named("training.wann_step"))
    wann_time = p.total("training.wann_step")
    flops = p.attr("training.wann_step", "flops")
    wann_epochs = p.attr("training.fit_wann", "epochs")
    cells = p.attr("data.load_csv", "cells")
    load_time = p.total("data.load_csv")
    kliep_iters = p.attr("baselines.kliep_weights", "iters")
    estimate_time = p.total("discrepancy.estimate_y_discrepancy")
    return {
        "nn.adam_step_calls": adam_calls,
        "nn.adam_step_share": _ratio(p.total("nn.adam_step"), wall),
        "nn.params_per_adam_step": _ratio(p.attr("nn.adam_step", "params"),
                                          adam_calls),
        "nn.forward_calls": len(p.named("nn.forward")),
        "nn.fit_regression_ms_per_epoch": 1e3 * _ratio(
            p.total("nn.fit_regression"),
            p.attr("nn.fit_regression", "epochs")),
        "nn.flops_per_step": _ratio(flops, wann_calls),
        "nn.achieved_gflops": _ratio(flops, wann_time) / 1e9,
        "training.wann_step_calls": wann_calls,
        "training.pretrain_weighter_ms_per_epoch": 1e3 * _ratio(
            p.total("training.pretrain_weighter"),
            p.attr("training.pretrain_weighter", "epochs")),
        "training.fit_wann_ms_per_epoch": 1e3 * _ratio(
            p.total("training.fit_wann"), wann_epochs),
        "training.validation_ms_per_epoch": 1e3 * _ratio(
            sum(s.duration for s in p.task_forwards()), wann_epochs),
        "baselines.median_pairwise_distance_ms":
            1e3 * p.total("baselines.median_pairwise_distance"),
        "baselines.kmm_weights_s": p.total("baselines.kmm_weights"),
        "baselines.kmm_kernel_bytes": p.attr("baselines.kmm_weights",
                                             "kernel_bytes"),
        "baselines.kliep_iters": kliep_iters,
        "baselines.kliep_ms_per_iter": 1e3 * _ratio(
            p.total("baselines.kliep_weights"), kliep_iters),
        "baselines.uniform_fit_s": p.total("baselines.uniform_fit"),
        "baselines.target_only_fit_s": p.total("baselines.target_only_fit"),
        "discrepancy.estimate_y_discrepancy_s": estimate_time,
        "discrepancy.ascent_steps": len(
            p.under("nn.adam_step", "discrepancy.estimate_y_discrepancy")),
        "discrepancy.eval_share": _ratio(
            sum(s.duration for s in p.direct_children(
                "nn.forward", "discrepancy.estimate_y_discrepancy")),
            estimate_time),
        "data.load_csv_s": load_time,
        "data.load_csv_cells": cells,
        "data.load_csv_cells_per_s": _ratio(cells, load_time),
        "harness.run_experiment_s": p.total("harness.run_experiment"),
        "harness.export_results_ms": 1e3 * p.total("harness.export_results"),
        "harness.emit_plot_data_ms": 1e3 * p.total("harness.emit_plot_data"),
        "harness.artifact_bytes": counts.get("artifact_bytes", 0),
        "cli.main_s": p.total("cli.main"),
        "cli.self_ms": 1e3 * sum(p.self_time(s) for s in p.named("cli.main")),
    }


def layer_metrics(spans: list[Span], passes: list[tuple[str, float, dict]],
                  untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of a traced run.

    ``passes`` holds (run label, wall seconds, workload counts) for each
    traced timed pass; spans with other labels come from set-up rounds.
    Returns the metrics, with 0 for a layer the workload never calls, and the
    names of counts that did not repeat.
    """
    by_run: dict[str, list[Span]] = {}
    for span in spans:
        by_run.setdefault(span.run, []).append(span)
    indexed = {run: _Pass(run_spans) for run, run_spans in by_run.items()}
    per_pass = [_pass_metrics(indexed.get(run, _Pass([])), wall, counts)
                for run, wall, counts in passes]
    metrics = {name: _median(m[name] for m in per_pass)
               for name in per_pass[0]} if per_pass else {}
    drifted = [name for name in EXACT_COUNTS
               if len({m[name] for m in per_pass}) > 1]

    pass_runs = {run for run, _, _ in passes}
    traced = [p for run, p in indexed.items() if run in pass_runs]

    def per_call_us(name):
        return 1e6 * _median(s.duration for p in traced for s in p.named(name))

    metrics["nn.adam_step_us"] = per_call_us("nn.adam_step")
    metrics["nn.forward_us"] = per_call_us("nn.forward")
    metrics["nn.weighted_mse_grad_us"] = per_call_us("nn.weighted_mse_grad")
    metrics["training.wann_step_us"] = per_call_us("training.wann_step")
    metrics["training.wann_step_self_us"] = 1e6 * _median(
        p.self_time(s) for p in traced for s in p.named("training.wann_step"))

    # Input generation and CSV writing happen in set-up rounds for some
    # workloads and inside each pass for others: take every round that
    # made the call.
    def per_round(name):
        totals = [p.total(name) for p in indexed.values() if p.named(name)]
        return _median(totals)

    metrics["data.save_csv_s"] = per_round("data.save_csv")
    metrics["data.gen_mixture_shift_ms"] = (
        1e3 * per_round("data.gen_mixture_shift"))
    traced_walls = [wall for _, wall, _ in passes]
    metrics["bench.trace_overhead"] = (
        _ratio(_median(traced_walls), _median(untraced_walls)) - 1.0
        if traced_walls and untraced_walls else 0.0)
    return metrics, drifted
