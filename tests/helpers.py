"""Shared test utilities: brute-force enumeration and finite-difference oracles.

These deliberately use the dumbest possible method (full enumeration,
central differences) so they can serve as independent checks of the
sampled / closed-form / analytic code paths.
"""

import csv
import io

import numpy as np
from scipy import stats

from vfair.baselines import DroConfig
from vfair.errors import ConfigError, DataError
from vfair.metrics import RANK_METRICS, GroupPartition, group_utilities, higher_is_better
from vfair.nnet import Batch, ModelSpec, forward, per_example_losses


def all_set_partitions(n):
    """Every partition of range(n) into non-empty blocks, as group-id arrays.

    Canonical "restricted growth string" enumeration: element i may join
    any existing block or open the next one.  Bell(8) = 4140, so this
    stays tractable for the n <= 8 used in tests.
    """
    assignment = np.zeros(n, dtype=np.int64)

    def rec(i, max_used):
        if i == n:
            yield assignment.copy()
            return
        for g in range(max_used + 2):
            assignment[i] = g
            yield from rec(i + 1, max(max_used, g))

    yield from rec(1, 0) if n > 0 else iter(())


def all_surjective_assignments(n, k):
    """Every labeled assignment of n examples onto k non-empty groups."""
    assignment = np.zeros(n, dtype=np.int64)

    def rec(i):
        if i == n:
            if len(np.unique(assignment)) == k:
                yield assignment.copy()
            return
        for g in range(k):
            assignment[i] = g
            yield from rec(i + 1)

    yield from rec(0)


def group_means(values, assignment):
    """Mean of `values` within each group id present in `assignment`."""
    out = []
    for g in np.unique(assignment):
        out.append(values[assignment == g].mean())
    return np.asarray(out)


def count_calls(monkeypatch, counts, key, fn, *owners):
    """Rebind `fn` (by its name) in every module of `owners` to a wrapper
    that counts calls under counts[key]."""
    counts.setdefault(key, 0)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, fn.__name__, counted)


def dro_objective(losses, eta, cfg: DroConfig):
    """Dual value C * sqrt(mean (l - eta)_+^2) + eta, elementwise over an eta
    array: the grid oracle of `baselines.dro_eta`'s closed form."""
    losses = np.asarray(losses, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    pos = np.maximum(losses - eta[..., None], 0.0)
    value = cfg.scale * np.sqrt(np.mean(pos**2, axis=-1)) + eta
    return float(value) if value.ndim == 0 else value


def dictwriter_csv(columns, rows) -> str:
    """CSV text of dict rows through `csv.DictWriter`, blanks for missing
    columns: the oracle of the column-wise step-trace writer and of
    `harness._write_csv`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def loop_random_partition_rank(per_method_predictions, targets, k, trials, seed, kind):
    """Reference `[methods, 4]` average ranks: one boolean-mask one-group
    utility per group, per method, per trial, drawing each partition with
    `rng.integers(0, k, size=n)` until every group is hit."""
    methods = list(per_method_predictions)
    targets = np.asarray(targets)
    n = len(targets)
    sign = -1.0 if higher_is_better(kind) else 1.0

    def overall(p, t):
        return group_utilities(p, t, GroupPartition.whole(len(t)), kind)[0]

    util = np.array([overall(per_method_predictions[m], targets) for m in methods])
    rng = np.random.default_rng(seed)
    rank_sum = np.zeros((len(methods), len(RANK_METRICS)))
    for _ in range(trials):
        while True:
            g = rng.integers(0, k, size=n)
            if len(np.unique(g)) == k:
                break
        wu, mud, tud = [], [], []
        for m in methods:
            p = np.asarray(per_method_predictions[m])
            gu = np.array([overall(p[g == j], targets[g == j]) for j in range(k)])
            wu.append(sign * (gu.min() if higher_is_better(kind) else gu.max()))
            mud.append(gu.max() - gu.min())
            tud.append(np.abs(gu - gu.mean()).sum())
        for j, values in enumerate((sign * util, wu, mud, tud)):
            rank_sum[:, j] += stats.rankdata(values, method="average")
    return rank_sum / trials


def directional_derivative_fd(
    spec: ModelSpec,
    params: np.ndarray,
    batch: Batch,
    objective: str,
    direction: np.ndarray,
    h: float = 1e-6,
    weights: np.ndarray | None = None,
) -> float:
    """Central-difference directional derivative of a scalar batch objective.

    objective: "mean"      mean of per-example losses
               "sigma"     std-dev of per-example losses about the batch mean
               "weighted"  (1/b) * sum_i weights_i * loss_i (weights required)

    Used as an independent check of the analytic gradients; never called
    by training code.
    """
    if objective not in ("mean", "sigma", "weighted"):
        raise ConfigError(f"unknown fd objective {objective!r}")
    if objective == "weighted":
        if weights is None:
            raise ConfigError("objective 'weighted' needs a weights vector")
        weights = np.asarray(weights, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != np.asarray(params).shape:
        raise DataError("direction must match the parameter vector shape")

    def value(p):
        losses = per_example_losses(spec, forward(spec, p, batch), batch.targets)
        if objective == "mean":
            return float(losses.mean())
        if objective == "sigma":
            return float(np.sqrt(np.mean((losses - losses.mean()) ** 2)))
        return float(np.mean(weights * losses))

    return (value(params + h * direction) - value(params - h * direction)) / (2.0 * h)
