"""Synthetic generators and CSV ingestion.

The synthetic scenarios are a gaussian-mixture-to-single-gaussian
covariate shift in N dimensions and a 1-D uniform-shift identity task.
Both are pure functions of their seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class LabeledSample:
    """Input matrix plus labels, tagged with the domain it was drawn from."""

    X: np.ndarray
    y: np.ndarray
    domain: str = "source"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must be a vector with one entry per row of X")
        if self.domain not in ("source", "target"):
            raise ValueError(f"unknown domain {self.domain!r}")

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class TrainingSet:
    """Combined source+target rows with a per-row target flag."""

    X: np.ndarray
    y: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        k = self.X.shape[0]
        if self.y.shape != (k,) or self.is_target.shape != (k,):
            raise ValueError("X, y and is_target must have matching row counts")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_source(self) -> int:
        return int((~self.is_target).sum())

    @property
    def n_target(self) -> int:
        return int(self.is_target.sum())

    def source_rows(self) -> LabeledSample:
        keep = ~self.is_target
        return LabeledSample(self.X[keep], self.y[keep], "source")

    def target_rows(self) -> LabeledSample:
        keep = self.is_target
        return LabeledSample(self.X[keep], self.y[keep], "target")


def labeling_fn(x: np.ndarray) -> float | np.ndarray:
    """Mean of absolute values of the components.

    Accepts a single vector or a matrix of row vectors; the label is
    shared by source and target domains in the synthetic scenario.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input vector")
    if x.ndim == 1:
        return float(np.mean(np.abs(x)))
    return np.mean(np.abs(x), axis=1)


@dataclass
class MixtureShiftSpec:
    """Gaussian-mixture covariate-shift scenario parameters."""

    dim: int
    m: int = 1000
    target_fraction: float = 0.2
    n_validation: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.m < 1 or self.n_validation < 1:
            raise ValueError("dim, m and n_validation must be positive")
        if not 0.0 < self.target_fraction < 1.0:
            raise ValueError("target_fraction must lie in (0, 1)")


@dataclass
class SyntheticData:
    """One seeded draw of the mixture scenario."""

    train: TrainingSet
    validation: LabeledSample
    origin_flags: np.ndarray
    mixture_centers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    target_center: np.ndarray = field(default_factory=lambda: np.zeros(0))


def gen_mixture_shift(spec: MixtureShiftSpec) -> SyntheticData:
    """Draw the N-gaussian-mixture source vs single-gaussian target task.

    The source inputs come from a mixture of ``dim`` unit-variance
    gaussians centered uniformly in [-1, 1]^dim; a fixed fraction of
    the rows is drawn from one extra unit-variance target gaussian
    instead, and those rows are flagged and treated as labeled target
    rows. Validation inputs are fresh target-gaussian draws. Labels
    are the shared labeling function applied exactly.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.dim
    centers = rng.uniform(-1.0, 1.0, size=(n, n))
    target_center = rng.uniform(-1.0, 1.0, size=n)

    n_tgt = int(round(spec.target_fraction * spec.m))
    flags = np.zeros(spec.m, dtype=bool)
    flags[rng.choice(spec.m, size=n_tgt, replace=False)] = True

    components = rng.integers(0, n, size=spec.m)
    means = centers[components]
    means[flags] = target_center
    X = means + rng.standard_normal((spec.m, n))
    y = labeling_fn(X)
    train = TrainingSet(X, y, flags.copy())

    val_x = target_center + rng.standard_normal((spec.n_validation, n))
    validation = LabeledSample(val_x, labeling_fn(val_x), "target")
    return SyntheticData(train, validation, flags, centers, target_center)


def gen_uniform_shift_1d(m: int, n: int, seed: int = 0,
                         grid_points: int = 201
                         ) -> tuple[TrainingSet, LabeledSample]:
    """1-D identity task with shifted uniform supports.

    Source inputs are U[0, 2], target inputs U[1, 3], and y = x for
    every row, so reweighting cannot hurt but feature alignment would.
    Also returns a dense evaluation grid over the target support with
    identity labels.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.default_rng(seed)
    src_x = rng.uniform(0.0, 2.0, size=m)
    tgt_x = rng.uniform(1.0, 3.0, size=n)
    x = np.concatenate([src_x, tgt_x])[:, None]
    flags = np.concatenate([np.zeros(m, dtype=bool), np.ones(n, dtype=bool)])
    train = TrainingSet(x, x[:, 0].copy(), flags)
    grid_x = np.linspace(1.0, 3.0, grid_points)[:, None]
    grid = LabeledSample(grid_x, grid_x[:, 0].copy(), "target")
    return train, grid


class CsvFormatError(ValueError):
    """Malformed CSV input; names the offending row/column when known."""


@dataclass
class CsvSchema:
    """Column layout of a labeled CSV file.

    ``feature_cols=None`` means every column except the label and
    domain columns. When ``domain_col`` is set, its values must be
    ``source`` or ``target`` and the file loads as a TrainingSet;
    otherwise the whole file is tagged with ``domain``.
    """

    label_col: str = "y"
    feature_cols: list[str] | None = None
    domain_col: str | None = None
    domain: str = "source"


def _parse_cell(raw: str, row: int, col: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CsvFormatError(
            f"non-numeric value {raw!r} at row {row}, column {col!r}"
        ) from None


def load_csv(path: str | Path, schema: CsvSchema | None = None
             ) -> LabeledSample | TrainingSet:
    """Load a headered numeric CSV, preserving row order.

    Returns a TrainingSet when the schema names a domain column, a
    LabeledSample otherwise.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        needed = [schema.label_col]
        if schema.domain_col is not None:
            needed.append(schema.domain_col)
        if schema.feature_cols is not None:
            needed.extend(schema.feature_cols)
        for col in needed:
            if col not in header:
                raise CsvFormatError(f"{path}: missing column {col!r}")
        feature_cols = schema.feature_cols
        if feature_cols is None:
            feature_cols = [c for c in header
                            if c != schema.label_col and c != schema.domain_col]
        if not feature_cols:
            raise CsvFormatError(f"{path}: no feature columns")
        index = {c: header.index(c) for c in header}

        rows, labels, flags = [], [], []
        for row_num, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvFormatError(
                    f"{path}: row {row_num} has {len(record)} cells, "
                    f"expected {len(header)}"
                )
            rows.append([_parse_cell(record[index[c]], row_num, c)
                         for c in feature_cols])
            labels.append(_parse_cell(record[index[schema.label_col]],
                                      row_num, schema.label_col))
            if schema.domain_col is not None:
                tag = record[index[schema.domain_col]].strip().lower()
                if tag not in ("source", "target"):
                    raise CsvFormatError(
                        f"{path}: row {row_num}: domain must be 'source' or "
                        f"'target', got {record[index[schema.domain_col]]!r}"
                    )
                flags.append(tag == "target")
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    y = np.array(labels, dtype=np.float64)
    if schema.domain_col is not None:
        return TrainingSet(X, y, np.array(flags, dtype=bool))
    return LabeledSample(X, y, schema.domain)


def save_csv(path: str | Path, data: LabeledSample | TrainingSet,
             schema: CsvSchema | None = None) -> None:
    """Write a sample as CSV with full float64 round-trip precision."""
    schema = schema or CsvSchema()
    feature_cols = schema.feature_cols
    if feature_cols is None:
        feature_cols = [f"x{k}" for k in range(data.X.shape[1])]
    elif len(feature_cols) != data.X.shape[1]:
        raise ValueError(f"{len(feature_cols)} feature names for "
                         f"{data.X.shape[1]} columns")
    header = list(feature_cols) + [schema.label_col]
    is_training_set = isinstance(data, TrainingSet)
    if is_training_set:
        domain_col = schema.domain_col or "domain"
        header.append(domain_col)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(data)):
            row = [format(v, ".17g") for v in data.X[k]]
            row.append(format(data.y[k], ".17g"))
            if is_training_set:
                row.append("target" if data.is_target[k] else "source")
            writer.writerow(row)
