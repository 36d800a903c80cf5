#!/usr/bin/env python3
"""Benchmark of the wann package: one workload, one seed, one result line.

Run from the root of a checkout that holds ``src/wann``:

    python3 perfbench/run.py --workload synth-paper --seed 1 --seconds 30 \
        --trace 0

A run pins the BLAS thread variables, imports ``wann`` from ``src/``, builds
the workload's inputs from the seed several times (set-up), runs one untimed
warm-up pass, then runs timed passes, one at a time, until ``--seconds`` have
passed. Every pass checks its outputs. With ``--trace 1`` the passes
alternate between untraced and traced, and the traced ones give the
per-layer figures. The last line of stdout is the JSON result; a
human-readable table (median, tail percentile and sample count of every
metric) comes before it, and the full record, with the environment, goes to
``.bench_out/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

# Set-up is repeated and its median reported, so one slow round does not
# move setup_s.
SETUP_ROUNDS = 3

# A tail is reported at the highest percentile with this many samples above.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import wann from this checkout's src/, after pinning BLAS threads."""
    init = ROOT / "src" / "wann" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a wann checkout")
    envinfo.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import wann

    if Path(wann.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported wann from {wann.__file__}, "
                         f"not from {init}")


def summarize(samples) -> dict:
    """Median, the tail with TAIL_BEYOND samples above it, and the count."""
    ordered = sorted(samples)
    n = len(ordered)
    row = {"median": statistics.median(ordered) if n else math.nan, "n": n,
           "tail": None, "tail_pct": None}
    if n > TAIL_BEYOND:
        row["tail"] = ordered[n - TAIL_BEYOND - 1]
        row["tail_pct"] = round(100.0 * (n - TAIL_BEYOND) / n, 1)
    return row


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _compare(reference, outcome) -> list[str]:
    """Differences between a pass and the warm-up pass of the same run."""
    problems = []
    if outcome.digest != reference.digest:
        problems.append("output digest differs from the warm-up pass")
    if outcome.counts != reference.counts:
        problems.append(f"counts {outcome.counts} differ from "
                        f"{reference.counts}")
    if outcome.values != reference.values:
        problems.append(f"values {outcome.values} differ from "
                        f"{reference.values}")
    return problems


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up and run timed passes; return the raw record."""
    from tracing import Tracer, instrumented, layer_metrics, nesting_violations
    from workloads import guarded_pass

    import_s = time.perf_counter() - _STARTED
    tracer = Tracer()

    def traced(label: str, on: bool):
        if not on:
            return contextlib.nullcontext()
        tracer.run = label
        return instrumented(tracer)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        setup_times = []
        for k in range(SETUP_ROUNDS):
            round_dir = work / f"setup{k}"
            round_dir.mkdir()
            with traced(f"setup{k}", trace):
                start = time.perf_counter()
                inputs = workload.setup(seed, round_dir)
                setup_times.append(time.perf_counter() - start)
            if k:
                shutil.rmtree(work / f"setup{k - 1}")

        def one_pass(label: str, on: bool):
            pass_dir = work / label
            pass_dir.mkdir()
            # start each pass with no garbage left over from the last one
            gc.collect()
            with traced(label, on):
                start = time.perf_counter()
                outcome = guarded_pass(workload, inputs, pass_dir)
                wall = time.perf_counter() - start
            shutil.rmtree(pass_dir)
            return outcome, wall

        reference, warm_s = one_pass("warmup", False)
        # Read before the timed passes: later passes only add allocator
        # fragmentation that grows with their count, which depends on speed.
        rss_mb = peak_rss_mb()
        outcomes = [reference]
        failures = list(reference.failures)
        untraced: list[tuple] = []
        traced_passes: list[tuple] = []
        loop_start = time.perf_counter()
        k = 0
        while (not untraced or (trace and not traced_passes)
               or time.perf_counter() - loop_start < seconds):
            on = trace and k % 2 == 1
            label = f"pass{k}"
            outcome, wall = one_pass(label, on)
            problems = outcome.failures + _compare(reference, outcome)
            outcome.failures = problems
            failures.extend(f"{label}: {p}" for p in problems)
            outcomes.append(outcome)
            (traced_passes if on else untraced).append((label, wall, outcome))
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(len(o.failures), o.attempted) for o in outcomes)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": attempted, "failed": failed,
        "failures": failures[:20],
        "setup": {"import_s": import_s, "rounds_s": setup_times,
                  "warmup_s": warm_s},
    }
    samples = {
        "setup_s": [import_s + t + warm_s for t in setup_times],
        "wall_s": [wall for _, wall, _ in untraced],
    }
    for op in workload.ops:
        samples[op] = [o.times[op] for _, _, o in untraced if op in o.times]
    for name in workload.quality:
        samples[name] = [o.values[name] for _, _, o in untraced
                         if name in o.values]
    record["samples"] = samples
    record["e2e"] = {name: summarize(values)
                     for name, values in samples.items()}
    record["e2e"]["peak_rss_mb"] = {"median": rss_mb, "n": 1,
                                    "tail": None, "tail_pct": None}
    if trace:
        passes = [(label, wall, o.counts) for label, wall, o in traced_passes]
        layers, drifted = layer_metrics(
            tracer.spans, passes, [wall for _, wall, _ in untraced])
        record["spans"] = [span.as_dict() for span in tracer.spans]
        bad_nesting = nesting_violations(record["spans"])
        # the span consistency check counts as one more checked operation
        for name in drifted:
            failures.append(f"count {name} differs between traced passes")
        if bad_nesting:
            failures.append(f"{bad_nesting} spans lie outside their parent")
        record["attempted"] += 1
        record["failed"] += 1 if drifted or bad_nesting else 0
        record["failures"] = failures[:20]
        record["layers"] = layers
    record["e2e"]["failed_ratio"] = {
        "median": record["failed"] / record["attempted"],
        "n": record["attempted"], "tail": None, "tail_pct": None}
    return record


# Units of the end-to-end metrics the table shows but the result line leaves
# out; the others take theirs from BENCHMARK.json.
TABLE_ONLY_UNITS = {"wann_run_s": "s", "uniform_run_s": "s",
                    "target_only_run_s": "s", "ydisc_run_s": "s",
                    "kmm_s": "s", "kliep_s": "s", "wann_mse": "MSE",
                    "failed_ratio": "failed/attempted"}


def print_table(record: dict, spec: dict) -> None:
    units = dict(TABLE_ONLY_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    for name, row in record["e2e"].items():
        tail = ("" if row["tail"] is None
                else f"  p{row['tail_pct']:g} {row['tail']:.6g}")
        print(f"{name:<22} {units[name]:<17} median {row['median']:.6g}"
              f"{tail}  n={row['n']}")
    if "layers" in record:
        for m in spec["per_layer"]:
            print(f"{m['name']:<40} {m['unit']:<8} "
                  f"{record['layers'][m['name']]:.6g}")
    for failure in record["failures"]:
        print(f"FAILED {failure.strip()}", file=sys.stderr)


def result_line(record: dict, spec: dict) -> dict:
    """The result object: the metrics BENCHMARK.json names, for this mode."""
    if record["trace"]:
        metrics = {m["name"]: {"value": record["layers"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["e2e"][m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not BENCHMARK_FILE.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found at the "
                         "checkout root")
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choices: {sorted(WORKLOADS)}")
    record = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace))
    record["environment"] = envinfo.environment(ROOT)
    OUT_ROOT.mkdir(exist_ok=True)
    out_file = (OUT_ROOT / f"{args.workload}-seed{args.seed}"
                f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# environment {json.dumps(record['environment'])}")
    print_table(record, spec)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
