"""Tabular data ingestion and synthetic bias benchmarks.

CSV loading is schema-driven: the caller declares feature columns
(numeric or categorical), one label column and any sensitive-attribute
columns.  Categorical features are one-hot encoded over their observed
levels; numeric features are loaded raw and standardized by ``split``,
with statistics of the training rows only, applied to both sides.

A ``Dataset`` is an ``nnet.Batch``, so its rows are checked once, when
``load_csv``, ``synthesize`` or ``split`` makes it; a value that overflows
on the way is refused there as one error, with no numpy warning.  The
schema or synthetic spec it was made from holds its task.

The synthetic generator plants a controlled majority/minority conflict:
a shared linear ground truth that the minority deviates from.  For
regression the minority's targets are shifted additively.  For the
classification tasks the minority's label-generating logit is
interpolated away from the shared rule: shift 0 keeps the shared
boundary, shift 1 degenerates to coin flips, shift 2 is the exactly
flipped boundary (labels anti-correlated with the majority's at every
point), which no single model can serve well on both sides.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .nnet import TASKS, Batch, _check_targets

logger = logging.getLogger(__name__)

COLUMN_KINDS = ("numeric", "categorical")
SYNTH_TASKS = ("regression_mse", "binary_bce", "logistic_regression_mse")
MAX_SYNTHETIC_VALUES = 1 << 26  # n x feature_dim: 512 MiB; the README config draws 6,000


@dataclass(frozen=True)
class DatasetSchema:
    feature_columns: tuple
    label_column: str
    sensitive_columns: tuple
    task: str

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if not self.feature_columns:
            raise ConfigError("schema needs at least one feature column")
        names = [n for n, _ in self.feature_columns]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature column names")
        for n, k in self.feature_columns:
            if k not in COLUMN_KINDS:
                raise ConfigError(f"column {n!r} has unknown kind {k!r}")
        if self.label_column in names:
            raise ConfigError("label column cannot also be a feature")


@dataclass(frozen=True)
class Dataset(Batch):
    """Encoded rows and their sensitive columns; ``subset`` gives a plain ``Batch``."""

    sensitive: dict       # name -> raw value array [n]
    numeric_columns: tuple  # encoded column indices that `split` standardizes
    rejected_rows: int = 0

    def __post_init__(self):
        super().__post_init__()
        for name, vals in self.sensitive.items():
            if len(vals) != len(self.targets):
                raise DataError(f"sensitive column {name!r} misaligned")

    @property
    def n(self) -> int:
        return len(self.targets)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def take_batch(dataset: Dataset, indices) -> Batch:
    """Row subset as a training batch, not re-checked: the dataset's rows were."""
    return dataset.subset(np.asarray(indices, dtype=np.int64))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_label(raw_labels: list, numbers: list, task: str) -> np.ndarray:
    """Labels as float targets, checked for the task.  `numbers` holds each
    raw label as parsed, None where it is not a number; if any is None,
    classification labels are mapped onto sorted distinct levels."""
    if None not in numbers:
        vals = np.array(numbers, dtype=np.float64)
    elif task == "regression_mse":
        raise DataError("regression labels must be numeric")
    else:
        vals = np.unique(raw_labels, return_inverse=True)[1].astype(np.float64)
    _check_targets(task, vals)
    return vals


def _number(cell: str) -> float | None:
    """`cell` as a float, or None when it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Read a UTF-8 comma-separated file against the schema.

    Rows with a missing value, an entry that is not a finite number in a
    numeric column, or a label that parses as a non-finite number, are
    dropped (and counted on the returned dataset).  Numeric features are
    returned raw; ``split`` standardizes them.  Each numeric cell is parsed
    once, by the test that keeps its row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        needed = [n for n, _ in schema.feature_columns]
        needed.append(schema.label_column)
        needed.extend(schema.sensitive_columns)
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        # a row dict keeps only the last of two equal headers: the other column would be lost unseen
        twice = [c for c in needed if reader.fieldnames.count(c) > 1]
        if twice:
            raise DataError(f"{path}: the header names column {twice[0]!r} more than once")
        numeric_names = [n for n, kind in schema.feature_columns if kind == "numeric"]

        kept_raw = []
        kept_numbers = []  # per kept row, its numeric feature values
        kept_labels = []  # per kept row, its label as a number, or None for text
        rejected = 0
        for row in reader:
            cells = {c: (row[c] or "").strip() for c in needed}
            numbers = [_number(cells[n]) for n in numeric_names]
            label = _number(cells[schema.label_column])
            if ("" in cells.values()
                    or not all(x is not None and math.isfinite(x) for x in numbers)
                    or (label is not None and not math.isfinite(label))):
                rejected += 1
            else:
                kept_raw.append(cells)
                kept_numbers.append(numbers)
                kept_labels.append(label)

    if rejected:
        logger.warning("%s: dropped %d malformed/incomplete rows", path, rejected)
    if not kept_raw:
        raise DataError(f"{path}: no usable rows")

    # column layout: numeric -> one raw column, categorical -> one-hot
    values = np.array(kept_numbers, dtype=np.float64).reshape(len(kept_raw), len(numeric_names))
    numeric = []
    blocks = []
    offset = 0
    for name, kind in schema.feature_columns:
        if kind == "numeric":
            blocks.append(values[:, len(numeric), None])  # numeric column number len(numeric)
            numeric.append(offset)
        else:
            # one-hot over sorted levels: zeros plus a scatter, never a [levels, levels] eye
            levels, codes = np.unique([r[name] for r in kept_raw], return_inverse=True)
            hot = np.zeros((len(codes), len(levels)))
            hot[np.arange(len(codes)), codes] = 1.0
            blocks.append(hot)
        offset += blocks[-1].shape[1]

    targets = _parse_label([r[schema.label_column] for r in kept_raw], kept_labels, schema.task)
    sensitive = {
        s: np.array([r[s] for r in kept_raw], dtype=object) for s in schema.sensitive_columns
    }
    return Dataset(
        features=np.hstack(blocks),
        targets=targets,
        sensitive=sensitive,
        numeric_columns=tuple(numeric),
        rejected_rows=rejected,
    )


# ---------------------------------------------------------------------------
# Split + normalization
# ---------------------------------------------------------------------------


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; the numeric features of both sides are
    standardized by the train side's population stats before each side is
    made, so its row check sees the rows training sees."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    n = dataset.n
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise ConfigError(f"split of {n} rows at {test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    sides = (perm[n_test:], perm[:n_test])
    # gathering the rows copies them, so each side is standardized in place;
    # a statistic that overflows is refused by the row check, as one error
    train_x, test_x = (dataset.features.take(idx, axis=0) for idx in sides)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in dataset.numeric_columns:
            vals = train_x[:, j]
            mean = float(vals.mean())
            std = float(np.sqrt(np.mean((vals - mean) ** 2)))
            if std == 0.0:
                std = 1.0  # constant on the train side -> train values all zero
            train_x[:, j] = (vals - mean) / std
            test_x[:, j] = (test_x[:, j] - mean) / std
    return tuple(replace(dataset, features=x, targets=dataset.targets.take(idx), rejected_rows=0,
                         sensitive={k: v.take(idx) for k, v in dataset.sensitive.items()})
                 for x, idx in zip((train_x, test_x), sides))


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    group_ratio: float
    feature_dim: int
    minority_shift: float
    noise_std: float
    task: str = "regression_mse"

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if not 0.0 < self.group_ratio < 1.0:
            raise ConfigError("group_ratio must be in (0, 1)")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.n * self.feature_dim > MAX_SYNTHETIC_VALUES:
            raise ConfigError(
                f"n x feature_dim is above MAX_SYNTHETIC_VALUES = {MAX_SYNTHETIC_VALUES}")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std cannot be negative")
        if self.task not in SYNTH_TASKS:
            raise ConfigError(
                f"synthetic task must be one of {SYNTH_TASKS} (got {self.task!r})"
            )


def synthesize(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic biased sample: minority examples deviate from the
    shared linear rule by ``minority_shift`` (see module docstring)."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=spec.feature_dim)
    x = rng.normal(size=(spec.n, spec.feature_dim))
    noise = rng.normal(size=spec.n)
    n_min = int(round(spec.n * spec.group_ratio))
    if n_min < 1 or n_min >= spec.n:
        raise ConfigError("group_ratio leaves one group empty at this n")
    group = np.zeros(spec.n, dtype=np.int64)
    group[rng.permutation(spec.n)[:n_min]] = 1  # 1 = minority

    # a target that overflows is refused by the row check, as one error
    with np.errstate(over="ignore", invalid="ignore"):
        noise *= spec.noise_std
        base = x @ w_true
        if spec.task == "regression_mse":
            y = base + spec.minority_shift * group + noise
        else:
            logit = (1.0 - spec.minority_shift * group) * base + noise
            y = (logit > 0.0).astype(np.float64)

    return Dataset(
        features=x,
        targets=y,
        sensitive={"group": group.copy()},
        numeric_columns=tuple(range(spec.feature_dim)),
    )
