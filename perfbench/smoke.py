#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark; run from the checkout root:

    python3 perfbench/smoke.py

For each workload, at a size that takes seconds, it runs the benchmark once
untraced and once traced, in this process, and checks that:

- the run is correct, with nothing failed;
- the run computes every metric BENCHMARK.json names (the traced run
  exactly the per-layer ones), and the result line carries them;
- every layer the workload is meant to exercise reports a non-zero figure;
- every span lies inside its parent;
- no wrapper is left on a wann module once the traced run is over.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "synth-paper": dict(dim=4, m=120, epochs=2, pretrain_epochs=1,
                        batch_size=32),
    "csv-large-batch": dict(dim=4, m=120, n_test=30, epochs=2,
                            pretrain_epochs=1, batch_size=32),
    "kernel-weights": dict(dim=4, m=120),
}

# The layer -> workload half of the map in README.md: on each workload these
# per-layer metrics must come out non-zero.
EXERCISED = {
    "synth-paper": (
        "nn.adam_step_us", "nn.adam_step_calls", "nn.params_per_adam_step",
        "nn.forward_us", "nn.weighted_mse_grad_us",
        "nn.fit_regression_ms_per_epoch", "nn.flops_per_step",
        "training.wann_step_us", "training.wann_step_self_us",
        "training.pretrain_weighter_ms_per_epoch",
        "training.fit_wann_ms_per_epoch", "training.validation_ms_per_epoch",
        "baselines.uniform_fit_s", "baselines.target_only_fit_s",
        "data.gen_mixture_shift_ms", "harness.run_experiment_s",
        "harness.export_results_ms", "harness.emit_plot_data_ms",
        "harness.artifact_bytes"),
    "csv-large-batch": (
        "nn.adam_step_calls", "nn.flops_per_step", "training.wann_step_calls",
        "training.fit_wann_ms_per_epoch", "data.load_csv_s",
        "data.load_csv_cells", "data.load_csv_cells_per_s", "data.save_csv_s",
        "data.gen_mixture_shift_ms", "discrepancy.estimate_y_discrepancy_s",
        "discrepancy.ascent_steps", "discrepancy.eval_share", "cli.main_s",
        "cli.self_ms"),
    "kernel-weights": (
        "baselines.median_pairwise_distance_ms", "baselines.kmm_weights_s",
        "baselines.kmm_kernel_bytes", "baselines.kliep_iters",
        "baselines.kliep_ms_per_iter", "data.gen_mixture_shift_ms"),
}

# Layers a workload must not touch at all (its "no change" control role).
UNTOUCHED = {
    "kernel-weights": ("nn.adam_step_calls", "nn.forward_calls",
                       "training.wann_step_calls", "data.load_csv_cells"),
    "synth-paper": ("data.load_csv_cells", "discrepancy.ascent_steps",
                    "baselines.kmm_kernel_bytes"),
    "csv-large-batch": ("baselines.kmm_kernel_bytes",
                        "harness.artifact_bytes"),
}


def check(name: str, spec: dict) -> list[str]:
    from tracing import leftover_wrappers, nesting_violations
    from workloads import WORKLOADS

    workload = WORKLOADS[name](**TINY[name])
    problems = []
    for trace in (False, True):
        record = run.measure(workload, seed=3, seconds=0.5, trace=trace)
        tag = f"{name} trace={int(trace)}"
        if record["failed"]:
            problems.append(f"{tag}: failures {record['failures']}")
        # traced: exactly the per-layer metrics; untraced: the end-to-end
        # ones among the figures the table shows
        group = "per_layer" if trace else "end_to_end"
        want = {m["name"] for m in spec[group]}
        have = set(record["layers"] if trace else record["e2e"])
        if want - have or (trace and have != want):
            problems.append(f"{tag}: metrics {sorted(have)} do not match "
                            f"BENCHMARK.json {sorted(want)}")
            continue
        line = run.result_line(record, spec)
        if not line["correct"] or set(line["metrics"]) != want:
            problems.append(f"{tag}: bad result line {line}")
        if not trace:
            continue
        layers = record["layers"]
        problems += [f"{tag}: {metric} is 0" for metric in EXERCISED[name]
                     if not layers[metric]]
        problems += [f"{tag}: {metric} is {layers[metric]}, expected 0"
                     for metric in UNTOUCHED[name] if layers[metric]]
        if not record["spans"]:
            problems.append(f"{tag}: no spans recorded")
        if nesting_violations(record["spans"]):
            problems.append(f"{tag}: a span lies outside its parent")
        leftover = leftover_wrappers()
        if leftover:
            problems.append(f"{tag}: wrappers not restored: {leftover}")
    return problems


def main() -> int:
    spec = json.loads(run.BENCHMARK_FILE.read_text(encoding="utf-8"))
    run.load_package()
    problems = []
    for name in TINY:
        found = check(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
