"""Shared test utilities: brute-force enumeration oracles.

These deliberately use the dumbest possible method (full enumeration)
so they can serve as independent checks of the sampled / closed-form
code paths.
"""

import numpy as np
from scipy import stats

from vfair.metrics import RANK_METRICS, higher_is_better, overall_utility


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


def loop_random_partition_rank(per_method_predictions, targets, k, trials, seed, kind):
    """Reference `[methods, 4]` average ranks: one boolean-mask
    `overall_utility` per group, per method, per trial, drawing each
    partition with `rng.integers(0, k, size=n)` until every group is hit."""
    methods = list(per_method_predictions)
    targets = np.asarray(targets)
    n = len(targets)
    sign = -1.0 if higher_is_better(kind) else 1.0
    util = np.array([overall_utility(per_method_predictions[m], targets, kind) for m in methods])
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
            gu = np.array([overall_utility(p[g == j], targets[g == j], kind) for j in range(k)])
            wu.append(sign * (gu.min() if higher_is_better(kind) else gu.max()))
            mud.append(gu.max() - gu.min())
            tud.append(np.abs(gu - gu.mean()).sum())
        for j, values in enumerate((sign * util, wu, mud, tud)):
            rank_sum[:, j] += stats.rankdata(values, method="average")
    return rank_sum / trials
