"""Command-line interface.

Subcommands: ``synth-bench`` (mixture-shift benchmark), ``fit`` (train
one method on CSV data), ``ydisc`` (two-sided risk-gap estimate) and
``demo-negative-transfer`` (1-D shifted-uniform illustration).

Exit codes: 0 success, 2 usage error, 1 runtime error. Diagnostics go
to stderr; results go to files and stdout. ``--seed`` (default from
the WANN_SEED environment variable) fully determines all outputs. A
``--config`` file holds ``key = value`` lines named after long flags;
explicit flags override it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import MIN_BANDWIDTH, KliepConfig, KmmConfig, TradaboostConfig
from .data import (CsvSchema, LabeledSample, MixtureShiftSpec,
                   csv_feature_cols, gen_uniform_shift_1d, load_csv)
from .discrepancy import ASCENT_EPOCHS, estimate_y_discrepancy
from .harness import (RUNNERS, ExperimentConfig, MethodSpec, run_experiment,
                      run_method, run_methods)
from .nn import ArchSpec, FitConfig
from .results import format_real, parse_kv_lines, write_run_file
from .svgplot import Line, Points, write_chart
from .training import WannConfig

METHOD_CHOICES = tuple(name.replace("_", "-") for name in RUNNERS)


def _seed(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer (from --seed or WANN_SEED), "
            f"got {raw!r}") from None


def _int_at_least(low: int):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_count = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _positive_real(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {raw!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {raw!r}")
    return value


def _bandwidth(raw: str) -> float:
    value = _positive_real(raw)
    if value < MIN_BANDWIDTH:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_BANDWIDTH:.3g}, got {raw!r}")
    return value


def _fraction(raw: str) -> float:
    value = _positive_real(raw)
    if value >= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {raw!r}")
    return value


def _count_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        raise argparse.ArgumentTypeError("expected a comma-separated list "
                                         "of integers")
    return [_count(v) for v in raw.split(",")]


def _dims(raw: str) -> list[int]:
    dims = _count_list(raw)
    for dim in dims:
        if dims.count(dim) > 1:
            raise argparse.ArgumentTypeError(f"dimension {dim} is repeated")
    return dims


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file of flag defaults")
    # argparse converts a string default with ``type`` only when the flag
    # is absent, so a bad WANN_SEED is a usage error unless --seed is given
    parser.add_argument("--seed", type=_seed,
                        default=os.environ.get("WANN_SEED", "0"),
                        help="master seed (default: WANN_SEED or 0)")


def _add_net_flags(parser: argparse.ArgumentParser,
                   epochs: int = FitConfig.epochs) -> None:
    parser.add_argument("--hidden", type=_count_list,
                        default=list(ArchSpec.hidden),
                        help="hidden layer widths, comma separated")
    parser.add_argument("--clip", type=_positive_real, default=ArchSpec.clip,
                        help="weight clipping constant")
    parser.add_argument("--epochs", type=_nonnegative, default=epochs)
    parser.add_argument("--batch-size", type=_count,
                        default=FitConfig.batch_size)
    parser.add_argument("--lr", type=_positive_real, default=FitConfig.lr)


def _add_pretrain_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretrain-epochs", type=_nonnegative,
                        default=WannConfig.pretrain_epochs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wann",
        description="Adversarial instance weighting for regression "
                    "domain adaptation.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "synth-bench",
        help="mixture-shift benchmark: wann vs uniform vs target-only")
    bench.add_argument("--dims", type=_dims, default=[32, 64, 128, 256],
                       help="input dimensions, comma separated")
    bench.add_argument("--repeats", type=_count, default=10)
    bench.add_argument("--m", type=_count, default=MixtureShiftSpec.m,
                       help="training rows per repeat")
    bench.add_argument("--target-fraction", type=_fraction,
                       default=MixtureShiftSpec.target_fraction)
    _add_pretrain_flag(bench)
    bench.add_argument("--parallel", type=_count, default=1,
                       help="worker processes for repeats; each inherits "
                            "numpy's BLAS threads, so set "
                            "OPENBLAS_NUM_THREADS=1 with it. At one BLAS "
                            "thread the default runs a repeat's methods on "
                            "two cores, but with more repeats than cores "
                            "the workers are still faster")
    bench.add_argument("--out", required=True, help="output directory")
    _add_net_flags(bench)
    _add_common(bench)

    fit = sub.add_parser("fit", help="train one method on CSV data")
    fit.add_argument("--method", required=True, choices=METHOD_CHOICES)
    fit.add_argument("--train", required=True, help="training CSV")
    fit.add_argument("--target-col", default="y", help="label column name")
    fit.add_argument("--domain-col", default="domain",
                     help="source/target column name")
    fit.add_argument("--test", help="optional test CSV (all target rows)")
    fit.add_argument("--out", required=True, help="output directory")
    _add_pretrain_flag(fit)
    fit.add_argument("--bandwidth", type=_bandwidth,
                     help="kernel bandwidth for kmm/kliep")
    fit.add_argument("--kmm-b", type=_positive_real, default=KmmConfig.B,
                     help="KMM weight cap B")
    fit.add_argument("--kliep-centers", type=_count,
                     default=KliepConfig.n_centers)
    fit.add_argument("--boost-iters", type=_count,
                     default=TradaboostConfig.n_iterations)
    _add_net_flags(fit)
    _add_common(fit)

    ydisc = sub.add_parser(
        "ydisc", help="estimate the target/weighted-source risk gap")
    ydisc.add_argument("--source", required=True, help="source CSV")
    ydisc.add_argument("--target", required=True, help="target CSV")
    ydisc.add_argument("--target-col", default="y", help="label column name")
    _add_net_flags(ydisc, epochs=ASCENT_EPOCHS)
    _add_common(ydisc)

    demo = sub.add_parser(
        "demo-negative-transfer",
        help="1-D shifted-uniform demo: reweighting cannot hurt")
    demo.add_argument("--out", required=True, help="output directory")
    demo.add_argument("--m", type=_count, default=200, help="source rows")
    demo.add_argument("--n", type=_count, default=50, help="target rows")
    _add_pretrain_flag(demo)
    _add_net_flags(demo)
    _add_common(demo)
    return parser


def _expand_config(argv: list[str], parser: argparse.ArgumentParser
                   ) -> list[str]:
    """Splice --config file entries in as flags before the user's flags.

    Both ``--config FILE`` and ``--config=FILE`` name the file.
    """
    for at, arg in enumerate(argv):
        if arg == "--config":
            if at + 1 >= len(argv):
                parser.error("--config needs a file path")
            path = Path(argv[at + 1])
            break
        if arg.startswith("--config="):
            path = Path(arg.partition("=")[2])
            break
    else:
        return argv
    if not path.exists():
        parser.error(f"config file not found: {path}")
    try:
        fields = parse_kv_lines(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        parser.error(f"bad config file: {exc}")
    injected: list[str] = []
    for key, value in fields.items():
        injected.extend([f"--{key.replace('_', '-')}", value])
    # config flags go first so explicit flags override them
    return injected + argv


def _net_params(args) -> dict:
    return {"epochs": args.epochs, "batch_size": args.batch_size,
            "hidden": tuple(args.hidden), "clip": args.clip, "lr": args.lr}


def cmd_synth_bench(args) -> int:
    """Run the benchmark per dimension; exit 1 if any run failed.

    Every dimension runs and writes its artifacts first; the failed
    runs are then named on stderr.
    """
    params = _net_params(args)
    wann_params = dict(params, pretrain_epochs=args.pretrain_epochs)
    out_root = Path(args.out)
    failed = []
    for dim in args.dims:
        scenario = MixtureShiftSpec(dim=dim, m=args.m,
                                    target_fraction=args.target_fraction,
                                    seed=args.seed)
        config = ExperimentConfig(
            scenario=scenario,
            methods=[MethodSpec("wann", wann_params),
                     MethodSpec("uniform", dict(params)),
                     MethodSpec("target_only", dict(params))],
            n_repeats=args.repeats,
            base_seed=args.seed,
            out_dir=str(out_root / f"dim{dim}"),
            n_workers=args.parallel,
        )
        results, table = run_experiment(config)
        failed += [f"dim{dim}/{r.method}_{r.seed}: {r.error}"
                   for r in results if r.error is not None]
        print(f"dim {dim}:")
        for row in table:
            mse = "failed" if row.mean_mse is None else format_real(row.mean_mse)
            std = "" if row.std_mse is None else f" (std {format_real(row.std_mse)})"
            rank = "" if row.rank is None else f"rank {row.rank}: "
            print(f"  {rank}{row.method}  mse {mse}{std}")
    if failed:
        print(f"error: {len(failed)} run(s) failed:", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


def _load_target_like(path: str, first_path: str, schema: CsvSchema
                      ) -> LabeledSample:
    """Load ``path`` as target rows. Its features are the columns named
    like the features of ``first_path`` under ``schema``, taken by name
    and put in ``first_path``'s order."""
    names = csv_feature_cols(first_path, schema)
    return load_csv(path, CsvSchema(label_col=schema.label_col,
                                    feature_cols=names))


def cmd_fit(args) -> int:
    schema = CsvSchema(label_col=args.target_col, domain_col=args.domain_col)
    train = load_csv(args.train, schema)
    test = None
    if args.test is not None:
        test = _load_target_like(args.test, args.train, schema)
    method = args.method.replace("-", "_")
    params = dict(_net_params(args), pretrain_epochs=args.pretrain_epochs,
                  kernel_bandwidth=args.bandwidth, B=args.kmm_b,
                  n_centers=args.kliep_centers,
                  n_iterations=args.boost_iters)
    result = run_method(MethodSpec(method, params), train, test, args.seed)
    if result.error is not None:
        raise RuntimeError(f"{method} failed: {result.error}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_file(result, out / f"{method}_{args.seed}.txt")
    summary = [
        f"method = {method}",
        f"seed = {args.seed}",
        f"rows = {len(train)}",
        f"source_rows = {train.n_source}",
        f"target_rows = {train.n_target}",
        f"features = {train.X.shape[1]}",
        f"hidden = {','.join(str(h) for h in args.hidden)}",
        f"clip = {format_real(args.clip)}",
        f"epochs = {args.epochs}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n",
                                     encoding="utf-8")
    if result.weights is not None:
        lines = [format_real(v) for v in result.weights]
        (out / "weights.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    if test is not None:
        metrics = [f"mse = {format_real(result.final_mse)}",
                   f"mae = {format_real(result.final_mae)}"]
        (out / "metrics.txt").write_text("\n".join(metrics) + "\n",
                                         encoding="utf-8")
        print(f"test mse {format_real(result.final_mse)} "
              f"mae {format_real(result.final_mae)}")
    return 0


def cmd_ydisc(args) -> int:
    schema = CsvSchema(label_col=args.target_col)
    source = load_csv(args.source, schema)
    target = _load_target_like(args.target, args.source, schema)
    weights = np.full(len(source), 1.0 / len(source))
    estimate = estimate_y_discrepancy(
        source.X, source.y, weights, target,
        arch=ArchSpec(tuple(args.hidden), args.clip),
        config=FitConfig(args.epochs, args.batch_size, args.lr, args.seed))
    print(f"estimate = {format_real(estimate.value)}")
    print(f"positive_side = {format_real(estimate.positive_side)}")
    print(f"negative_side = {format_real(estimate.negative_side)}")
    return 0


def cmd_demo_negative_transfer(args) -> int:
    train, grid = gen_uniform_shift_1d(args.m, args.n, args.seed)
    params = _net_params(args)
    specs = [MethodSpec("uniform", params),
             MethodSpec("wann", dict(params,
                                     pretrain_epochs=args.pretrain_epochs))]
    results = {}
    for spec, result in zip(specs, run_methods(specs, train, grid, args.seed)):
        if result.error is not None:
            raise RuntimeError(f"{spec.name} failed: {result.error}")
        results[spec.name] = result
    preds = {name: result.predictions for name, result in results.items()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "points.csv", "w", encoding="utf-8") as fh:
        fh.write("x,y,domain\n")
        for k in range(len(train)):
            domain = "target" if train.is_target[k] else "source"
            fh.write(f"{format_real(train.X[k, 0])},"
                     f"{format_real(train.y[k])},{domain}\n")

    with open(out / "fits.csv", "w", encoding="utf-8") as fh:
        fh.write("x,truth,uniform,wann\n")
        for k in range(len(grid)):
            fh.write(f"{format_real(grid.X[k, 0])},{format_real(grid.y[k])},"
                     f"{format_real(preds['uniform'][k])},"
                     f"{format_real(preds['wann'][k])}\n")

    metrics_lines = []
    for name, result in results.items():
        mse = format_real(result.final_mse)
        metrics_lines.append(f"{name}_grid_mse = {mse}")
        print(f"{name} grid mse {mse}")
    (out / "metrics.txt").write_text("\n".join(metrics_lines) + "\n",
                                     encoding="utf-8")

    src = train.source_rows()
    tgt = train.target_rows()
    write_chart(
        out / "demo.svg",
        lines=[Line("truth", grid.X[:, 0], grid.y),
               Line("uniform fit", grid.X[:, 0], preds["uniform"]),
               Line("wann fit", grid.X[:, 0], preds["wann"])],
        points=[Points("source", src.X[:, 0], src.y),
                Points("target", tgt.X[:, 0], tgt.y)],
        x_label="x", y_label="y")
    return 0


COMMANDS = {
    "synth-bench": cmd_synth_bench,
    "fit": cmd_fit,
    "ydisc": cmd_ydisc,
    "demo-negative-transfer": cmd_demo_negative_transfer,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        sub = argv[0]
        argv = [sub] + _expand_config(argv[1:], parser)
    args = parser.parse_args(argv)
    try:
        # a diverged run is caught by the finiteness checks and named, so
        # numpy's overflow warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
