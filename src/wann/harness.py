"""Seeded multi-run experiment orchestration and persistence.

Each repeat draws one data set shared by every method (same rows, same
order), with seed ``base_seed + r``. Results are persisted as one
structured-text file per run plus an aggregate CSV table, per-curve
CSV files, weight histograms and an SVG learning-curve chart. All
persisted artifacts are byte-reproducible from the configuration.
"""

from __future__ import annotations

import csv
import multiprocessing
import signal
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import baselines, lanes
from .data import (LabeledSample, MixtureShiftSpec, TrainingSet, checked,
                   gen_mixture_shift)
from .nn import ArchSpec, FitConfig, FitTrace, fit_network, forward
from .results import (CURVE_METRIC, RunResult, compute_metrics, format_real,
                      write_run_file)
from .svgplot import Line, write_chart
from .training import (WannConfig, build_wann_model, fit_wann, predict,
                       pretrain_weighter)


# bins of each weight histogram written by emit_plot_data
HISTOGRAM_BINS = 30

# MethodSpec.params keys, grouped by the configuration each one sets;
# an absent key keeps that configuration's default
_ARCH_KEYS = ("hidden", "clip")
_FIT_KEYS = ("epochs", "batch_size", "lr")
_WANN_KEYS = ("pretrain_epochs",)
_KMM_KEYS = ("kernel_bandwidth", "B", "eps")
_KLIEP_KEYS = ("n_centers", "kernel_bandwidth")
PARAM_KEYS = frozenset(_ARCH_KEYS + _FIT_KEYS + _WANN_KEYS + _KMM_KEYS
                       + _KLIEP_KEYS + ("n_iterations",))


@dataclass(frozen=True)
class MethodSpec:
    """One method of an experiment.

    ``name`` names the runner (a key of ``RUNNERS``) and ``params``
    holds hyper-parameter overrides (see ``PARAM_KEYS``), kept as a
    read-only copy: the spec is checked once, when made.
    """

    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.params) - PARAM_KEYS)
        if unknown:
            raise ValueError(f"unknown method parameter(s) {unknown} for "
                             f"{self.name!r}; accepted: {sorted(PARAM_KEYS)}")
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))

    def __reduce__(self):
        # a mappingproxy does not pickle; worker processes get a plain copy
        return MethodSpec, (self.name, dict(self.params))


@dataclass(frozen=True)
class ExperimentConfig:
    """A seeded comparison; ``methods`` may be given as any sequence and
    is kept as a tuple."""

    scenario: MixtureShiftSpec
    methods: tuple[MethodSpec, ...]
    n_repeats: int = 1
    base_seed: int = 0
    out_dir: str | None = None
    n_workers: int = 1

    def __post_init__(self):
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        object.__setattr__(self, "methods", tuple(self.methods))
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError("method names must be unique")


def _pick(params: Mapping, keys: tuple[str, ...]) -> dict:
    return {key: params[key] for key in keys if key in params}


@dataclass(frozen=True)
class MethodConfigs:
    """Every configuration a runner reads, each made once per run."""

    arch: ArchSpec
    fit: FitConfig
    wann: WannConfig
    kmm: baselines.KmmConfig
    kliep: baselines.KliepConfig
    tradaboost: baselines.TradaboostConfig

    @classmethod
    def from_params(cls, params: Mapping, seed: int) -> "MethodConfigs":
        """Make each configuration; each checks its keys when made."""
        arch = ArchSpec(**_pick(params, _ARCH_KEYS))
        fit = FitConfig(seed=seed, **_pick(params, _FIT_KEYS))
        return cls(
            arch, fit,
            WannConfig(seed=seed, **_pick(params, _FIT_KEYS + _WANN_KEYS)),
            baselines.KmmConfig(**_pick(params, _KMM_KEYS)),
            baselines.KliepConfig(seed=seed, **_pick(params, _KLIEP_KEYS)),
            baselines.TradaboostConfig(arch=arch, fit=fit,
                                       **_pick(params, ("n_iterations",))))


# what a runner returns: a predictor of the trained model, the trace of
# its fit and its training weights (None for a method without any)
Fitted = tuple[Callable[[np.ndarray], np.ndarray], FitTrace,
               np.ndarray | None]


def _run_wann(train, validation, configs: MethodConfigs) -> Fitted:
    model = build_wann_model(train.X.shape[1], configs.arch, configs.wann)
    pretrain_weighter(model, train, configs.wann)
    trace = fit_wann(model, train, configs.wann, validation)
    return partial(predict, model), trace, model.instance_weights(train.X)


def _run_uniform(train, validation, configs: MethodConfigs) -> Fitted:
    net, trace = baselines.uniform_fit(train, configs.arch, configs.fit,
                                       validation)
    return partial(forward, net), trace, None


def _run_target_only(train, validation, configs: MethodConfigs) -> Fitted:
    net, trace = baselines.target_only_fit(train, configs.arch, configs.fit,
                                           validation)
    return partial(forward, net), trace, None


def _density_weighted_fit(weights, train, validation, configs: MethodConfigs
                          ) -> Fitted:
    """Fit a network with density-ratio source weights, uniform target."""
    k = len(train)
    per_row = np.full(k, 1.0 / k)
    per_row[~train.is_target] = weights / k
    net, trace = fit_network(configs.arch, train.X, train.y, per_row,
                             configs.fit, validation)
    return partial(forward, net), trace, weights


def _run_kmm(train, validation, configs: MethodConfigs) -> Fitted:
    weights = baselines.kmm_weights(train.source_rows().X,
                                    train.target_rows().X, configs.kmm)
    return _density_weighted_fit(weights, train, validation, configs)


def _run_kliep(train, validation, configs: MethodConfigs) -> Fitted:
    weights = baselines.kliep_weights(train.source_rows().X,
                                      train.target_rows().X, configs.kliep)
    return _density_weighted_fit(weights, train, validation, configs)


def _run_tradaboost(train, validation, configs: MethodConfigs) -> Fitted:
    ensemble = baselines.tradaboost_r2_fit(train, configs.tradaboost)
    return ensemble.predict, FitTrace(), ensemble.final_weights


RUNNERS = {
    "wann": _run_wann,
    "uniform": _run_uniform,
    "target_only": _run_target_only,
    "kmm": _run_kmm,
    "kliep": _run_kliep,
    "tradaboost": _run_tradaboost,
}


def _runner(name: str) -> Callable[..., Fitted]:
    if name not in RUNNERS:
        raise ValueError(f"unknown method {name!r}; "
                         f"choices: {sorted(RUNNERS)}")
    return RUNNERS[name]


def run_method(spec: MethodSpec, train: TrainingSet,
               validation: LabeledSample | None, seed: int) -> RunResult:
    """Run one method, capturing failures as an error-tagged result.

    A bad value of any ``spec.params`` key, whether or not the method
    reads it, an empty sample, a non-finite value in either sample and a
    validation sample whose width differs from the training set's are
    such failures, found before the method starts.
    """
    runner = _runner(spec.name)
    start = time.perf_counter()
    result = RunResult(method=spec.name, seed=seed)
    try:
        configs = MethodConfigs.from_params(spec.params, seed)
        checked("train.X", train.X)
        checked("train.y", train.y, ndim=1)
        if len(train) == 0:
            raise ValueError("training set is empty")
        if validation is not None:
            checked("validation.X", validation.X, width=(
                train.X.shape[1], "validation sample", "training set"))
            checked("validation.y", validation.y, ndim=1)
            if len(validation) == 0:
                raise ValueError("validation sample is empty")
        predictor, trace, weights = runner(train, validation, configs)
        result.curve = trace.val_mse
        result.weights = weights
        if validation is not None:
            # the last epoch's predictions already describe the trained
            # model; only a fit of zero epochs, or one that keeps no
            # trace, needs a pass of its own
            predictions = trace.predictions
            if predictions is None:
                predictions = predictor(validation.X)
            result.final_mse, result.final_mae = compute_metrics(
                predictions, validation.y)
            result.predictions = predictions
    except Exception as exc:
        result = RunResult(method=spec.name, seed=seed,
                           error=f"{type(exc).__name__}: {exc}")
    result.wall_seconds = time.perf_counter() - start
    return result


def _engine() -> tuple:
    """The functions a method's run looks up in this module."""
    return (run_method, forward, predict, fit_network, fit_wann,
            pretrain_weighter, build_wann_model, *RUNNERS.values())


# the functions a method's run calls, as imported (see method_lanes)
_ENGINE = _engine()


def method_lanes(n_workers: int = 1) -> int:
    """Lanes ``run_methods`` may run a repeat's methods on: 2 when
    ``lanes.lane_count`` allows two, ``n_workers`` is 1, the ``fork``
    start method exists and this process runs one thread and may have
    children; 1 otherwise.

    Worker processes for repeats already fill the cores, and a child
    forked beside another thread may inherit a lock that thread holds.
    """
    if (n_workers > 1 or threading.active_count() > 1
            or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return lanes.lane_count(_engine(), _ENGINE)


def run_methods(specs: Sequence[MethodSpec], train: TrainingSet,
                validation: LabeledSample | None, seed: int,
                n_lanes: int) -> list[RunResult]:
    """``run_method`` on each spec, the results in the order of ``specs``.

    With two lanes (see ``method_lanes``) the caller runs the first spec
    while one forked child runs the rest and sends their results back
    through a pipe in one message; every result is the same to the bit
    either way. The child is always joined, and terminated first if the
    caller raises. If the child dies before it sends, each of its specs
    gets an error-tagged result that names the child's exit code. If no
    child can be forked, the caller runs every spec. An unknown method
    name raises before any spec runs.
    """
    for spec in specs:
        _runner(spec.name)
    if n_lanes < 2 or len(specs) < 2:
        return [run_method(spec, train, validation, seed) for spec in specs]
    rest = specs[1:]

    def child_lane() -> None:
        # Ctrl-C reaches the whole process group; the caller, which gets
        # it too, ends the child
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        send.send([run_method(spec, train, validation, seed)
                   for spec in rest])

    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=child_lane, daemon=True)
    try:
        child.start()
    except OSError:  # no process to be had: the caller runs every spec
        child = None
    send.close()
    try:
        results = [run_method(specs[0], train, validation, seed)]
        if child is None:
            return results + [run_method(spec, train, validation, seed)
                              for spec in rest]
        try:
            results += receive.recv()
        except EOFError:  # the child died before it sent
            child.join()
            results += [RunResult(method=spec.name, seed=seed,
                                  error=f"ChildProcessError: the method "
                                        f"lane's child exited with code "
                                        f"{child.exitcode} before sending "
                                        f"this result")
                        for spec in rest]
        child.join()
    except BaseException:
        if child is not None:
            child.terminate()
            child.join()
        raise
    finally:
        receive.close()
    return results


def _run_repeat(scenario: MixtureShiftSpec, methods: tuple[MethodSpec, ...],
                seed: int, *, n_lanes: int) -> list[RunResult]:
    data = gen_mixture_shift(replace(scenario, seed=seed))
    return run_methods(methods, data.train, data.validation, seed, n_lanes)


@dataclass
class TableRow:
    method: str
    n_runs: int
    mean_mse: float | None
    std_mse: float | None
    mean_mae: float | None
    std_mae: float | None
    rank: int | None


def build_comparison_table(results: list[RunResult]) -> list[TableRow]:
    """Per-method mean/std of the final metrics, ranked by mean MSE; a
    method with no finished run comes last, with rank None."""
    by_method: dict[str, list[RunResult]] = {}
    for r in results:
        by_method.setdefault(r.method, []).append(r)
    rows = []
    for method in sorted(by_method):
        ok = [r for r in by_method[method] if r.error is None
              and r.final_mse is not None]
        if ok:
            mses = np.array([r.final_mse for r in ok])
            maes = np.array([r.final_mae for r in ok])
            rows.append(TableRow(method, len(ok),
                                 float(mses.mean()), float(mses.std()),
                                 float(maes.mean()), float(maes.std()), 0))
        else:
            rows.append(TableRow(method, 0, None, None, None, None, None))
    rows.sort(key=lambda row: (row.mean_mse is None,
                               row.mean_mse if row.mean_mse is not None else 0.0,
                               row.method))
    for rank, row in enumerate(rows, start=1):
        if row.mean_mse is not None:
            row.rank = rank
    return rows


def export_results(results: list[RunResult], out_dir: str | Path
                   ) -> list[TableRow]:
    """Write one run file per result plus the aggregate table CSV."""
    if not results:
        raise ValueError("no results to export")
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for result in sorted(results, key=lambda r: (r.method, r.seed)):
        write_run_file(result, runs_dir / f"{result.method}_{result.seed}.txt")
    table = build_comparison_table(results)
    with open(out / "table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n_runs", "mean_mse", "std_mse",
                         "mean_mae", "std_mae", "rank"])
        for row in table:
            writer.writerow([
                row.method, row.n_runs,
                "" if row.mean_mse is None else format_real(row.mean_mse),
                "" if row.std_mse is None else format_real(row.std_mse),
                "" if row.mean_mae is None else format_real(row.mean_mae),
                "" if row.std_mae is None else format_real(row.std_mae),
                row.rank,
            ])
    return table


def emit_plot_data(results: list[RunResult], out_dir: str | Path) -> None:
    """Write per-run curve CSVs, weight histograms and the curve chart."""
    if not results:
        raise ValueError("no results to plot")
    out = Path(out_dir)
    curves_dir = out / "curves"
    results = sorted(results, key=lambda r: (r.method, r.seed))

    for result in results:
        if not result.curve:
            continue
        curves_dir.mkdir(parents=True, exist_ok=True)
        path = curves_dir / f"{result.method}_{result.seed}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", CURVE_METRIC])
            for epoch, value in enumerate(result.curve):
                writer.writerow([epoch, format_real(value)])

    weights_dir = out / "weights"
    for result in results:
        if result.weights is None or len(result.weights) == 0:
            continue
        weights_dir.mkdir(parents=True, exist_ok=True)
        w = np.asarray(result.weights, dtype=np.float64)
        mean = w.mean()
        if mean > 0:
            w = w / mean
        counts, edges = np.histogram(w, bins=HISTOGRAM_BINS)
        path = weights_dir / f"{result.method}_{result.seed}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            for k in range(HISTOGRAM_BINS):
                writer.writerow([format_real(edges[k]),
                                 format_real(edges[k + 1]), int(counts[k])])

    by_method: dict[str, list[RunResult]] = {}
    for result in results:
        if result.curve:
            by_method.setdefault(result.method, []).append(result)
    if by_method:
        lines = []
        for method in sorted(by_method):
            curves = by_method[method]
            length = min(len(r.curve) for r in curves)
            stack = np.array([r.curve[:length] for r in curves])
            lines.append(Line(label=method, xs=np.arange(length),
                              ys=stack.mean(axis=0),
                              band=stack.std(axis=0)))
        write_chart(out / "plot.svg", lines=lines, x_label="epoch",
                    y_label=CURVE_METRIC)


def run_experiment(config: ExperimentConfig
                   ) -> tuple[list[RunResult], list[TableRow]]:
    """Run every (method, repeat) pair; persist when out_dir is set.

    Repeat r uses seed base_seed + r for the data draw and every
    method. A method failure is recorded in its result, not raised.
    """
    seeds = [config.base_seed + r for r in range(config.n_repeats)]
    repeat = partial(_run_repeat, config.scenario, config.methods,
                     n_lanes=method_lanes(config.n_workers))
    if config.n_workers > 1:
        with ProcessPoolExecutor(max_workers=config.n_workers) as pool:
            batches = list(pool.map(repeat, seeds))
    else:
        batches = [repeat(seed) for seed in seeds]
    results = [result for batch in batches for result in batch]
    results.sort(key=lambda r: (r.method, r.seed))
    if config.out_dir is not None:
        table = export_results(results, config.out_dir)
        emit_plot_data(results, config.out_dir)
    else:
        table = build_comparison_table(results)
    return results, table
