"""Shared test utilities: brute-force enumeration oracles.

These deliberately use the dumbest possible method (full enumeration)
so they can serve as independent checks of the sampled / closed-form
code paths.
"""

import numpy as np


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
