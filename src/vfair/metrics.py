"""Group fairness metrics over arbitrary example partitions.

Utilities are computed per group of a partition; the spread statistics
(worst-group utility, max utility difference, total utility deviation)
quantify how unevenly a model serves the groups, and the variance of
per-example losses is the partition-free analogue the training method
actually optimizes.  The random-partition ranking protocol compares
methods on partitions drawn uniformly at random, where a method can
only do well by being uniformly good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

UTILITY_KINDS = ("accuracy", "f1", "mse")
RANK_METRICS = ("utility", "wu", "mud", "tud")


def _checked_kind(kind: str) -> str:
    if kind not in UTILITY_KINDS:
        raise ConfigError(f"unknown utility kind {kind!r}; expected one of {UTILITY_KINDS}")
    return kind


def higher_is_better(kind: str) -> bool:
    return _checked_kind(kind) in ("accuracy", "f1")


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPartition:
    """Assignment of n examples to k non-empty groups 0..k-1; `sizes[g]`
    counts group g, once, where the assignment is checked."""

    group_of: np.ndarray
    k: int
    label: str = ""
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.group_of)
        if g.ndim != 1 or len(g) == 0:
            raise DataError("group_of must be a non-empty 1-d array")
        g = g.astype(np.int64)
        if g.min() < 0 or g.max() >= self.k:
            raise DataError("group ids must lie in [0, k)")
        sizes = np.bincount(g, minlength=self.k)
        if sizes.min() == 0:
            raise DataError("every group must be non-empty")
        object.__setattr__(self, "group_of", g)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return len(self.group_of)

    @classmethod
    def from_values(cls, values, label: str = "") -> "GroupPartition":
        """Partition by the distinct values of a raw attribute column."""
        values = np.asarray(values)
        uniq, inverse = np.unique(values, return_inverse=True)
        return cls(group_of=inverse, k=len(uniq), label=label)

    @classmethod
    def whole(cls, n: int, label: str = "") -> "GroupPartition":
        """All n examples in the one group 0."""
        return cls(group_of=np.zeros(n, dtype=np.int64), k=1, label=label)


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def _example_terms(rows: np.ndarray, targets: np.ndarray, kind: str) -> tuple:
    """Per-example `[m, n]` terms whose per-group sums make the utility:
    squared error (mse), correctness (accuracy), or TP, FP, FN (f1)."""
    if kind == "f1":
        pred_pos, true_pos = rows == 1, targets == 1
        tp = pred_pos & true_pos
        fp = pred_pos & (targets == 0)
        fn = (rows == 0) & true_pos
        return tuple(t.astype(np.float64) for t in (tp, fp, fn))
    if kind == "accuracy":
        return ((rows == targets).astype(np.float64),)
    return (np.square(np.asarray(rows, dtype=np.float64) - np.asarray(targets, dtype=np.float64)),)


def _score_groups(terms: tuple, partition: GroupPartition, kind: str) -> np.ndarray:
    """`[m, k]` utilities from `_example_terms`; every (model, group) sum
    comes from one `np.bincount` over the cell ids `model * k + group`."""
    m, k = len(terms[0]), partition.k
    cells = (np.arange(m)[:, None] * k + partition.group_of).ravel()
    sums = [np.bincount(cells, weights=t.ravel(), minlength=m * k).reshape(m, k) for t in terms]
    if kind == "f1":
        tp, fp, fn = sums
        denom = 2.0 * tp + fp + fn
        return np.divide(2.0 * tp, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return sums[0] / partition.sizes


def _aligned_terms(predictions, targets, n: int, kind: str) -> tuple:
    """`_example_terms` of `[n]` or `[m, n]` predictions against `[n]` targets."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.ndim not in (1, 2) or predictions.shape[-1] != n or targets.shape != (n,):
        raise DataError("predictions/targets must align with the partition")
    return _example_terms(predictions.reshape(-1, n), targets, kind)


def group_utilities(predictions, targets, partition: GroupPartition, kind: str) -> np.ndarray:
    """Per-group utility, index g of the result belonging to group g.

    `predictions` is one model's `[n]` (result `[k]`) or a stack of m
    models' `[m, n]` (result `[m, k]`).
    """
    kind = _checked_kind(kind)
    out = _score_groups(_aligned_terms(predictions, targets, len(partition), kind), partition, kind)
    return out if np.ndim(predictions) == 2 else out[0]


def _per_row(values: np.ndarray):
    """A float for one model's utilities, an array for a stack's."""
    return float(values) if values.ndim == 0 else values


def _spread(utilities, higher: bool = False) -> np.ndarray:
    """`[..., 3]`: wu, mud and tud of each row of `[k]` or `[m, k]` utilities,
    from one max and one min per row; only wu reads `higher`."""
    utilities = np.asarray(utilities, dtype=np.float64)
    if utilities.ndim not in (1, 2) or utilities.shape[-1] == 0:
        raise DataError("utilities must be a non-empty [k] or [m, k] array")
    out = np.empty(utilities.shape[:-1] + (3,))
    hi, lo = utilities.max(axis=-1), utilities.min(axis=-1)
    out[..., 0] = lo if higher else hi
    np.subtract(hi, lo, out=out[..., 1])
    np.abs(utilities - utilities.mean(axis=-1, keepdims=True)).sum(axis=-1, out=out[..., 2])
    return out


def worst_utility(utilities, kind: str):
    """The unluckiest group: min for higher-is-better kinds, max for mse.
    Row-wise on `[m, k]`."""
    return _per_row(_spread(utilities, higher=higher_is_better(kind))[..., 0])


def mud(utilities):
    """Max utility difference across groups.  Row-wise on `[m, k]`."""
    return _per_row(_spread(utilities)[..., 1])


def tud(utilities):
    """Total absolute deviation of group utilities from their unweighted
    mean (which makes tud == mud for two groups).  Row-wise on `[m, k]`."""
    return _per_row(_spread(utilities)[..., 2])


def var_pred_error(per_example_errors) -> float:
    """Population variance of the per-example errors (task losses)."""
    e = np.asarray(per_example_errors, dtype=np.float64)
    if e.ndim != 1 or len(e) == 0:
        raise DataError("per-example errors must be a non-empty 1-d array")
    return float(np.mean((e - e.mean()) ** 2))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """One evaluation of one model against one partition."""

    utility_kind: str
    utility: float
    per_group_utility: list[float]
    wu: float
    mud: float
    tud: float
    var: float
    n_examples: int
    partition_label: str = ""

    # names of the scalar metric fields, in report order
    SCALARS = ("utility", "wu", "mud", "tud", "var")


def build_report(
    predictions, targets, per_example_errors, partition: GroupPartition, kind: str
) -> MetricsReport:
    """Assemble the full metric set for one model on one partition.  The
    per-example terms are built once and scored on the partition and on
    the whole (the overall utility)."""
    kind = _checked_kind(kind)
    if np.ndim(predictions) != 1:
        raise DataError("predictions must be one model's 1-d array")
    n = len(partition)
    terms = _aligned_terms(predictions, targets, n, kind)
    per_group = _score_groups(terms, partition, kind)[0]
    return MetricsReport(
        utility_kind=kind,
        utility=float(_score_groups(terms, GroupPartition.whole(n), kind)[0, 0]),
        per_group_utility=[float(u) for u in per_group],
        wu=worst_utility(per_group, kind),
        mud=mud(per_group),
        tud=tud(per_group),
        var=var_pred_error(per_example_errors),
        n_examples=n,
        partition_label=partition.label,
    )


# ---------------------------------------------------------------------------
# Random-partition ranking
# ---------------------------------------------------------------------------


@dataclass
class RankTable:
    """Average ranks (1 = best) per method over random partitions."""

    methods: list[str]
    avg_rank: np.ndarray  # [n_methods, len(RANK_METRICS)]


# rejection sampling in `random_partition` refuses (n, k) whose expected
# number of draws exceeds this
MAX_EXPECTED_DRAWS = 1000


def _too_many_draws(n: int, k: int) -> bool:
    """Whether k^n / (number of surjections of n onto k) > MAX_EXPECTED_DRAWS."""
    # one group is always hit; union bound: P(some group empty) <= k (1 - 1/k)^n,
    # and at most 1/2 means at most 2 expected draws, without the sum below
    if k == 1 or math.log(k) + n * math.log1p(-1.0 / k) <= math.log(0.5):
        return False
    # inclusion-exclusion on Python ints: exact where floats would cancel
    surjections = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return k**n > MAX_EXPECTED_DRAWS * surjections


def _partitions(rng: np.random.Generator, n: int, k: int):
    """`random_partition`'s draws, endlessly, after one check of (n, k).  A
    draw is not re-validated, as `Batch.subset`'s rows are not: it is int64
    in [0, k), and the `bincount` that accepts it is its `sizes`."""
    if not 1 <= k <= n:
        raise ConfigError(f"cannot split {n} examples into {k} non-empty groups")
    if _too_many_draws(n, k):
        raise ConfigError(
            f"a uniform split of {n} examples into {k} groups leaves a group empty too "
            f"often: more than {MAX_EXPECTED_DRAWS} draws expected; use fewer groups"
        )
    while True:
        g = rng.integers(0, k, size=n)
        sizes = np.bincount(g, minlength=k)
        if sizes.min() > 0:
            part = object.__new__(GroupPartition)
            part.__dict__.update(group_of=g, k=k, label="", sizes=sizes)
            yield part


def random_partition(rng: np.random.Generator, n: int, k: int) -> GroupPartition:
    """Uniform group assignment, resampled until every group is hit; a
    ConfigError, before any draw, if hitting every group is so unlikely that
    more than MAX_EXPECTED_DRAWS draws are expected."""
    return next(_partitions(rng, n, k))


def random_partition_rank(
    per_method_predictions: dict,
    targets,
    k: int,
    trials: int,
    seed: int,
    kind: str,
) -> RankTable:
    """Rank methods on utility/wu/mud/tud over random k-group partitions.

    The split is checked once; every trial draws one partition as
    `random_partition` does and scores every method on it in one `bincount`
    pass (see `group_utilities`); one pass over all trials' utilities gives
    wu/mud/tud.  Ranks per metric (ties share the mean rank) are averaged.
    """
    kind = _checked_kind(kind)
    methods = list(per_method_predictions)
    if len(methods) < 2:
        raise ConfigError("ranking needs at least two methods")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    targets = np.asarray(targets)
    n = len(targets)
    preds = {m: np.asarray(per_method_predictions[m]) for m in methods}
    for m, p in preds.items():
        if p.shape != targets.shape:
            raise DataError(f"predictions for {m!r} do not align with targets")
    # the per-example terms and the overall utility are partition-free: once
    terms = _example_terms(np.stack([preds[m] for m in methods]), targets, kind)
    util = _score_groups(terms, GroupPartition.whole(n), kind)[:, 0]
    # per trial and method: group utilities, then wu, mud, tud oriented so
    # that lower is better
    partitions = _partitions(np.random.default_rng(seed), n, k)
    gu = np.stack([_score_groups(terms, next(partitions), kind) for _ in range(trials)])
    sign = -1.0 if higher_is_better(kind) else 1.0
    spread = _spread(gu.reshape(-1, k), higher=sign < 0).reshape(trials, len(methods), 3)
    spread[..., 0] *= sign

    # ranks are half-integers, so their sum over trials is exact
    avg_rank = np.column_stack([
        _average_ranks(sign * util, axis=0),
        _average_ranks(spread, axis=1).mean(axis=0),
    ])
    return RankTable(methods=methods, avg_rank=avg_rank)


def _average_ranks(x: np.ndarray, axis: int) -> np.ndarray:
    """1-based ranks along `axis`, each run of ties sharing its mean rank, and
    NaN where a slice holds a NaN: scipy's `rankdata(method="average")`."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = xs[..., :-1] != xs[..., 1:]
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=x.size)
    sorted_ranks = np.repeat(first % n + 1 + (counts - 1) / 2, counts).reshape(x.shape)
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=-1)
    ranks[np.isnan(x).any(axis=-1)] = np.nan
    return np.moveaxis(ranks, -1, axis)


# ---------------------------------------------------------------------------
# Significance
# ---------------------------------------------------------------------------


def significance_test(a, b) -> float:
    """Two-sided Welch's t-test p-value between two metric samples, computed
    step for step as scipy's `ttest_ind(a, b, equal_var=False)` computes it;
    `stdtr` is imported here, so only a p-value loads ``scipy.special``."""
    from scipy.special import stdtr
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ConfigError("significance needs at least two values per side")
    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0:
        # degenerate: every repetition produced the identical value, so the
        # usual test statistic is undefined
        return 1.0 if a[0] == b[0] else 0.0
    n1, n2 = len(a), len(b)
    vn1 = np.mean((a - a.mean()) ** 2) * (n1 / (n1 - 1)) / n1
    vn2 = np.mean((b - b.mean()) ** 2) * (n2 / (n2 - 1)) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        # a variance that underflows to 0 leaves df undefined; any df then works
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        t = (a.mean() - b.mean()) / np.sqrt(vn1 + vn2)
    return float(2 * stdtr(1.0 if np.isnan(df) else df, -abs(t)))
