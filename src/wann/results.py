"""Run results and their line-delimited text persistence.

One file per run, ``key = value`` lines, reals written with 17
significant digits so parsing recovers them exactly. Wall-clock time
and validation predictions are kept in memory only: persisted
artifacts must be byte-reproducible from the seed, and predictions
are summarized by the final metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

# the quantity every run's curve records, once per epoch
CURVE_METRIC = "validation_mse"


def format_real(x: float) -> str:
    return format(float(x), ".17g")


class Metrics(NamedTuple):
    mse: float
    mae: float


def compute_metrics(predictions: np.ndarray, labels: np.ndarray) -> Metrics:
    """Mean squared and mean absolute error."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same shape")
    if len(predictions) == 0:
        raise ValueError("empty prediction vector")
    err = predictions - labels
    return Metrics(float(np.mean(err * err)), float(np.mean(np.abs(err))))


@dataclass
class RunResult:
    """Outcome of one (method, seed) training run."""

    method: str
    seed: int
    curve: list[float] = field(default_factory=list)
    final_mse: float | None = None
    final_mae: float | None = None
    weights: np.ndarray | None = None
    error: str | None = None
    wall_seconds: float | None = None
    predictions: np.ndarray | None = None


def write_run_file(result: RunResult, path: str | Path) -> None:
    lines = [
        f"method = {result.method}",
        f"seed = {result.seed}",
        f"curve_metric = {CURVE_METRIC}",
        "curve = " + ",".join(format_real(v) for v in result.curve),
    ]
    if result.final_mse is not None:
        lines.append(f"final_mse = {format_real(result.final_mse)}")
    if result.final_mae is not None:
        lines.append(f"final_mae = {format_real(result.final_mae)}")
    if result.weights is not None:
        lines.append("weights = " +
                     ",".join(format_real(v) for v in result.weights))
    if result.error is not None:
        lines.append(f"error = {result.error}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_kv_lines(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines are ignored."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line {raw!r}: expected 'key = value'")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    return [float(v) for v in raw.split(",")]


def parse_run_file(path: str | Path) -> RunResult:
    fields = parse_kv_lines(Path(path).read_text(encoding="utf-8"))
    weights = None
    if "weights" in fields:
        weights = np.array(_float_list(fields["weights"]), dtype=np.float64)
    return RunResult(
        method=fields["method"],
        seed=int(fields["seed"]),
        curve=_float_list(fields.get("curve", "")),
        final_mse=float(fields["final_mse"]) if "final_mse" in fields else None,
        final_mae=float(fields["final_mae"]) if "final_mae" in fields else None,
        weights=weights,
        error=fields.get("error"),
    )
