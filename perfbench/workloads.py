"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

Each workload builds its inputs in ``setup`` and runs one pass of calls into
the public wann API in ``run_pass``. A pass is closed-loop: one caller, one
call at a time. Every pass checks the outputs it produced; a failed check or
a raised error counts against ``failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wann.baselines
import wann.cli
import wann.data
import wann.harness


@dataclass
class PassOutcome:
    """What one pass measured and checked (the wall time is the caller's)."""

    times: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest(), total


def _kv(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


@dataclass
class SynthPaper:
    """``run_experiment`` on the paper's mixture shift: wann, uniform and
    target-only at hidden (100, 100), clip 1, batch 128, lr 0.001.

    The paper trains 300 epochs (50 pretrain); a pass here trains fewer so
    that one run holds enough passes for a median and a tail. Per-epoch cost
    is the same, so every per-epoch figure still describes the paper setting.
    """

    name = "synth-paper"
    ops = ("wann_run_s", "uniform_run_s", "target_only_run_s")
    quality = ("wann_mse",)

    dim: int = 64
    m: int = 1000
    epochs: int = 12
    pretrain_epochs: int = 2
    batch_size: int = 128

    def setup(self, seed: int, work: Path):
        spec = wann.data.MixtureShiftSpec(dim=self.dim, m=self.m,
                                          target_fraction=0.2, seed=seed)
        draw = wann.data.gen_mixture_shift(spec)
        if draw.train.n_target == 0 or draw.train.n_source == 0:
            raise ValueError("draw lacks a domain")
        common = {"hidden": (100, 100), "clip": 1.0, "lr": 0.001,
                  "epochs": self.epochs, "batch_size": self.batch_size}
        methods = [
            wann.harness.MethodSpec(
                "wann", dict(common, pretrain_epochs=self.pretrain_epochs)),
            wann.harness.MethodSpec("uniform", dict(common)),
            wann.harness.MethodSpec("target_only", dict(common)),
        ]
        return spec, methods, seed

    def run_pass(self, inputs, out: Path) -> PassOutcome:
        spec, methods, seed = inputs
        config = wann.harness.ExperimentConfig(
            scenario=spec, methods=methods, n_repeats=1, base_seed=seed,
            out_dir=str(out), n_workers=1)
        results, _ = wann.harness.run_experiment(config)
        outcome = PassOutcome(attempted=len(methods))
        for result in results:
            outcome.times[f"{result.method}_run_s"] = result.wall_seconds
            if result.error is not None:
                outcome.failures.append(f"{result.method}: {result.error}")
            elif (result.final_mse is None
                  or not math.isfinite(result.final_mse)):
                outcome.failures.append(f"{result.method}: final_mse "
                                        f"{result.final_mse!r}")
            elif result.method == "wann":
                outcome.values["wann_mse"] = result.final_mse
        outcome.digest, outcome.counts["artifact_bytes"] = _tree_digest(out)
        return outcome


@dataclass
class CsvLargeBatch:
    """``wann fit --method wann`` and ``wann ydisc`` through ``cli.main`` on
    dim-256 CSV files written at set-up, both at batch 1000."""

    name = "csv-large-batch"
    ops = ("wann_run_s", "ydisc_run_s")
    quality = ("wann_mse",)

    dim: int = 256
    m: int = 2000
    n_test: int = 500
    epochs: int = 12
    pretrain_epochs: int = 2
    batch_size: int = 1000

    def setup(self, seed: int, work: Path):
        spec = wann.data.MixtureShiftSpec(dim=self.dim, m=self.m,
                                          target_fraction=0.2,
                                          n_validation=self.n_test, seed=seed)
        draw = wann.data.gen_mixture_shift(spec)
        paths = {"train": work / "train.csv", "test": work / "test.csv",
                 "source": work / "source.csv"}
        wann.data.save_csv(paths["train"], draw.train,
                           wann.data.CsvSchema(domain_col="domain"))
        wann.data.save_csv(paths["test"], draw.validation)
        wann.data.save_csv(paths["source"], draw.train.source_rows())
        return paths, seed

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wann.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, inputs, out: Path) -> PassOutcome:
        paths, seed = inputs
        net = ["--batch-size", str(self.batch_size), "--seed", str(seed)]
        fit_dir = out / "fit"
        fit_argv = ["fit", "--method", "wann", "--train", str(paths["train"]),
                    "--target-col", "y", "--domain-col", "domain",
                    "--test", str(paths["test"]), "--out", str(fit_dir),
                    "--epochs", str(self.epochs),
                    "--pretrain-epochs", str(self.pretrain_epochs), *net]
        ydisc_argv = ["ydisc", "--source", str(paths["source"]),
                      "--target", str(paths["test"]),
                      "--epochs", str(self.epochs), *net]
        outcome = PassOutcome(attempted=2)
        h = hashlib.sha256()

        start = time.perf_counter()
        code, stdout, stderr = self._cli(fit_argv)
        outcome.times["wann_run_s"] = time.perf_counter() - start
        if code != 0:
            outcome.failures.append(f"fit exited {code}: {stderr.strip()}")
        else:
            metrics_file = fit_dir / "metrics.txt"
            metrics = _kv(metrics_file.read_text(encoding="utf-8"))
            try:
                mse, mae = float(metrics["mse"]), float(metrics["mae"])
            except (KeyError, ValueError):
                mse = mae = math.nan
            if not (math.isfinite(mse) and math.isfinite(mae)):
                outcome.failures.append(f"fit metrics.txt: {metrics!r}")
            else:
                outcome.values["wann_mse"] = mse
            h.update(metrics_file.read_bytes())
            h.update((fit_dir / f"wann_{seed}.txt").read_bytes())

        start = time.perf_counter()
        code, stdout, stderr = self._cli(ydisc_argv)
        outcome.times["ydisc_run_s"] = time.perf_counter() - start
        if code != 0:
            outcome.failures.append(f"ydisc exited {code}: {stderr.strip()}")
        else:
            fields = _kv(stdout)
            try:
                est, pos, neg = (float(fields[k]) for k in
                                 ("estimate", "positive_side",
                                  "negative_side"))
            except (KeyError, ValueError):
                est, pos, neg = math.nan, 0.0, 0.0
            if not (math.isfinite(est) and est == max(pos, neg)):
                outcome.failures.append(f"ydisc output: {stdout!r}")
            h.update(stdout.encode())
        outcome.digest = h.hexdigest()
        return outcome


@dataclass
class KernelWeights:
    """``kmm_weights`` and ``kliep_weights`` with default configurations on
    the source and target rows of the paper's mixture draw."""

    name = "kernel-weights"
    ops = ("kmm_s", "kliep_s")
    quality = ()

    dim: int = 64
    m: int = 1000

    def setup(self, seed: int, work: Path):
        spec = wann.data.MixtureShiftSpec(dim=self.dim, m=self.m,
                                          target_fraction=0.2, seed=seed)
        train = wann.data.gen_mixture_shift(spec).train
        return train.source_rows().X, train.target_rows().X, seed

    def run_pass(self, inputs, out: Path) -> PassOutcome:
        source, target, seed = inputs
        m = len(source)
        outcome = PassOutcome(attempted=2)
        kmm_config = wann.baselines.KmmConfig()
        kliep_config = wann.baselines.KliepConfig(seed=seed)

        start = time.perf_counter()
        w_kmm = wann.baselines.kmm_weights(source, target, kmm_config)
        outcome.times["kmm_s"] = time.perf_counter() - start
        # KmmConfig documents eps=None as (sqrt(m) - 1) / sqrt(m)
        eps = max((math.sqrt(m) - 1.0) / math.sqrt(m), 1e-12)
        slack = 1e-9 * m
        total = float(w_kmm.sum())
        if not (w_kmm.shape == (m,) and w_kmm.min() >= 0.0
                and w_kmm.max() <= kmm_config.B
                and m * (1 - eps) - slack <= total <= m * (1 + eps) + slack):
            outcome.failures.append(
                f"kmm weights: min {w_kmm.min()}, max {w_kmm.max()}, "
                f"sum {total} outside [0, B] or the eps band")

        objective: list[float] = []
        start = time.perf_counter()
        w_kliep = wann.baselines.kliep_weights(source, target, kliep_config,
                                               objective_trace=objective)
        outcome.times["kliep_s"] = time.perf_counter() - start
        if not (w_kliep.shape == (m,) and w_kliep.min() >= 0.0
                and abs(float(w_kliep.mean()) - 1.0) <= 1e-9):
            outcome.failures.append(
                f"kliep weights: min {w_kliep.min()}, mean {w_kliep.mean()}")
        outcome.counts["kliep_iters"] = len(objective) - 1
        outcome.digest = hashlib.sha256(
            np.ascontiguousarray(w_kmm).tobytes()
            + np.ascontiguousarray(w_kliep).tobytes()).hexdigest()
        return outcome


WORKLOADS = {w.name: w for w in (SynthPaper, CsvLargeBatch, KernelWeights)}


def guarded_pass(workload, inputs, out: Path) -> PassOutcome:
    """Run one pass; an escaping error becomes a failed outcome."""
    try:
        return workload.run_pass(inputs, out)
    except Exception:
        return PassOutcome(attempted=1, failures=[traceback.format_exc()])
