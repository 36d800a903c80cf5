"""Synthetic generators and CSV ingestion.

The synthetic scenarios are a gaussian-mixture-to-single-gaussian
covariate shift in N dimensions and a 1-D uniform-shift identity task.
Both are pure functions of their seed.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def checked(name: str, values, ndim: int = 2,
            width: tuple[int, str, str] | None = None) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one already.

    A wrong ndim, or a non-finite value (with its first row), is a
    ``ValueError`` that names ``name``. ``width=(count, sample, other)``
    asks a matrix for ``count`` columns, else "{sample} has k features,
    {other} has {count}". An array of no rows passes.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != ndim:
        shape = "1-D vector" if ndim == 1 else "2-D matrix"
        raise ValueError(f"{name} must be a {shape}")
    if width is not None and values.shape[1] != width[0]:
        raise ValueError(f"{width[1]} has {values.shape[1]} features, "
                         f"{width[2]} has {width[0]}")
    finite = np.isfinite(values)
    if not finite.all():
        row = np.unravel_index(np.argmin(finite), finite.shape)[0]
        raise ValueError(f"{name} has a non-finite value in row {row}")
    return values


@dataclass
class LabeledSample:
    """Input matrix plus labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must be a vector with one entry per row of X")

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class TrainingSet(LabeledSample):
    """Combined source+target rows with a per-row target flag."""

    is_target: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.is_target.shape != self.y.shape:
            raise ValueError("is_target must have one entry per row of X")

    @property
    def n_source(self) -> int:
        return int((~self.is_target).sum())

    @property
    def n_target(self) -> int:
        return int(self.is_target.sum())

    def source_rows(self) -> LabeledSample:
        keep = ~self.is_target
        return LabeledSample(self.X[keep], self.y[keep])

    def target_rows(self) -> LabeledSample:
        keep = self.is_target
        return LabeledSample(self.X[keep], self.y[keep])


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


@dataclass(frozen=True)
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
    train = TrainingSet(X, y, flags)

    val_x = target_center + rng.standard_normal((spec.n_validation, n))
    validation = LabeledSample(val_x, labeling_fn(val_x))
    return SyntheticData(train, validation, centers, target_center)


# evaluation grid points of gen_uniform_shift_1d
GRID_POINTS = 201


def gen_uniform_shift_1d(m: int, n: int, seed: int = 0
                         ) -> tuple[TrainingSet, LabeledSample]:
    """1-D identity task with shifted uniform supports.

    Source inputs are U[0, 2], target inputs U[1, 3], and y = x for
    every row, so reweighting cannot hurt but feature alignment would.
    Also returns an evaluation grid of ``GRID_POINTS`` evenly spaced
    points over the target support, with identity labels.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.default_rng(seed)
    src_x = rng.uniform(0.0, 2.0, size=m)
    tgt_x = rng.uniform(1.0, 3.0, size=n)
    x = np.concatenate([src_x, tgt_x])[:, None]
    flags = np.concatenate([np.zeros(m, dtype=bool), np.ones(n, dtype=bool)])
    train = TrainingSet(x, x[:, 0].copy(), flags)
    grid_x = np.linspace(1.0, 3.0, GRID_POINTS)[:, None]
    grid = LabeledSample(grid_x, grid_x[:, 0].copy())
    return train, grid


class CsvFormatError(ValueError):
    """Malformed CSV input; names the offending row/column when known."""


@dataclass
class CsvSchema:
    """Column layout of a labeled CSV file.

    ``feature_cols=None`` means every column except the label and
    domain columns. When ``domain_col`` is set, its values must be
    ``source`` or ``target`` and the file loads as a TrainingSet;
    otherwise it loads as a LabeledSample.
    """

    label_col: str = "y"
    feature_cols: list[str] | None = None
    domain_col: str | None = None


_DOMAIN_FLAGS = {"source": 0.0, "target": 1.0}


def _domain_flag(tag: str) -> float:
    try:
        return _DOMAIN_FLAGS[tag.strip().lower()]
    except KeyError:
        raise ValueError(f"bad domain tag {tag!r}") from None


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float64.

    That is ``float`` on the cell stripped of whitespace, except that
    non-ASCII characters and ``_`` digit groups are refused.
    """
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


class _DataLines:
    """The lines after the header, noting any blank one that
    ``np.loadtxt`` would skip without a word."""

    def __init__(self, fh):
        self._fh = fh
        self.blank = False

    def __iter__(self):
        for line in self._fh:
            if not line.strip():
                self.blank = True
            yield line


def _raise_first_error(path: Path, header: list[str], feature_cols: list[str],
                       schema: CsvSchema, cause: str):
    """Re-read ``path`` record by record and raise for its first fault.

    Only called once the fast parse has failed; it never returns data.
    Faults are checked in file order and, within a row, width first,
    then features, label and domain tag.
    """
    index = {c: k for k, c in enumerate(header)}
    n_rows = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_num, record in enumerate(reader):
            n_rows += 1
            if len(record) != len(header):
                raise CsvFormatError(
                    f"{path}: row {row_num} has {len(record)} cells, "
                    f"expected {len(header)}"
                )
            for col in (*feature_cols, schema.label_col):
                raw = record[index[col]]
                if not _is_number(raw):
                    raise CsvFormatError(
                        f"{path}: non-numeric value {raw!r} at row "
                        f"{row_num}, column {col!r}"
                    )
            if schema.domain_col is not None:
                raw = record[index[schema.domain_col]]
                if raw.strip().lower() not in _DOMAIN_FLAGS:
                    raise CsvFormatError(
                        f"{path}: row {row_num}: domain must be 'source' or "
                        f"'target', got {raw!r}"
                    )
    if n_rows == 0:
        raise CsvFormatError(f"{path}: no data rows")
    raise CsvFormatError(f"{path}: {cause}")


def _read_header(fh, path: Path, schema: CsvSchema
                 ) -> tuple[list[str], list[str]]:
    """Read the header row of an open CSV file and check it against
    ``schema``; returns the header and the feature columns, in order."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    repeated = _repeated(header)
    if repeated is not None:
        raise CsvFormatError(f"{path}: repeated column {repeated!r}")
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
    return header, feature_cols


def csv_feature_cols(path: str | Path, schema: CsvSchema | None = None
                     ) -> list[str]:
    """Names of the feature columns ``load_csv(path, schema)`` returns,
    in the order of its ``X``; only the header row is read."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _read_header(fh, path, schema or CsvSchema())[1]


def _repeated(names: list[str]) -> str | None:
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def load_csv(path: str | Path, schema: CsvSchema | None = None
             ) -> LabeledSample | TrainingSet:
    """Load a headered numeric CSV, preserving row order.

    Returns a TrainingSet when the schema names a domain column, a
    LabeledSample otherwise.

    The accepted format: UTF-8 text, with or without a byte-order mark;
    a comma delimiter; one header row of distinct column names; then
    one row per sample with one cell per header column, optionally
    quoted with ``"``. There are no comment lines and no blank lines.
    Numeric cells are what ``float`` reads, written in ASCII and
    without ``_`` digit groups, optionally padded with whitespace.
    Domain cells read ``source`` or ``target`` in any case, optionally
    padded. Every fault raises a CsvFormatError that starts with the
    path and names the first bad row and column when there is one; rows
    are counted from 0 among the data rows, as ``checked`` counts them.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, feature_cols = _read_header(fh, path, schema)
        converters = None
        if schema.domain_col is not None:
            converters = {header.index(schema.domain_col): _domain_flag}
        lines = _DataLines(fh)
        cause = "blank line"
        with warnings.catch_warnings():
            # a file without rows only warns; the shape check catches it
            warnings.simplefilter("ignore", UserWarning)
            try:
                table = np.loadtxt(lines, dtype=np.float64, delimiter=",",
                                   quotechar='"', comments=None,
                                   converters=converters, ndmin=2)
            except ValueError as exc:
                table, cause = None, str(exc)
    if (table is None or lines.blank or len(table) == 0
            or table.shape[1] != len(header)):
        _raise_first_error(path, header, feature_cols, schema, cause)
    X = table.take([header.index(c) for c in feature_cols], axis=1)
    y = table[:, header.index(schema.label_col)].copy()
    if schema.domain_col is not None:
        flags = table[:, header.index(schema.domain_col)] == 1.0
        return TrainingSet(X, y, flags)
    return LabeledSample(X, y)


# save_csv formats and writes this many cells (at least one row) at a
# time, so its memory stays bounded whatever the size of the table
_SAVE_CHUNK_CELLS = 4096


def save_csv(path: str | Path, data: LabeledSample | TrainingSet,
             schema: CsvSchema | None = None) -> None:
    """Write a sample as CSV with full float64 round-trip precision.

    Column names must be distinct: a feature name may not repeat or equal
    the label or domain column name.
    """
    schema = schema or CsvSchema()
    d = data.X.shape[1]
    feature_cols = schema.feature_cols
    if feature_cols is None:
        feature_cols = [f"x{k}" for k in range(d)]
    elif len(feature_cols) != d:
        raise ValueError(f"{len(feature_cols)} feature names for "
                         f"{d} columns")
    header = list(feature_cols) + [schema.label_col]
    is_training_set = isinstance(data, TrainingSet)
    if is_training_set:
        domain_col = schema.domain_col or "domain"
        header.append(domain_col)
    repeated = _repeated(header)
    if repeated is not None:
        raise ValueError(f"column name {repeated!r} appears more than once")
    row_format = ",".join(["%.17g"] * (d + 1))
    chunk = max(1, _SAVE_CHUNK_CELLS // (d + 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(data), chunk):
            rows = slice(start, start + chunk)
            cells = np.column_stack((data.X[rows], data.y[rows])).tolist()
            if is_training_set:
                ends = [",target\r\n" if t else ",source\r\n"
                        for t in data.is_target[rows]]
            else:
                ends = ["\r\n"] * len(cells)
            fh.write("".join([row_format % tuple(row) + end
                              for row, end in zip(cells, ends)]))
