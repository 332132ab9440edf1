"""Tests for the group-fairness metric suite."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import (
    all_surjective_assignments,
    count_calls,
    exact_too_many_draws,
    group_means,
    group_mse_report,
    loop_random_partition_rank,
)
from vfair import metrics
from vfair.cli import main as cli_main
from vfair.errors import ConfigError, DataError, NumericError
from vfair.harness import RunRecord
from vfair.metrics import (
    MAX_EXPECTED_DRAWS,
    RANK_METRICS,
    GroupPartition,
    MetricsReport,
    build_report,
    group_utilities,
    higher_is_better,
    random_partition,
    random_partition_rank,
    significance_test,
    var_pred_error,
)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_partition_from_values():
    p = GroupPartition.from_values(np.array(["b", "a", "b", "c"]), label="letters")
    assert p.k == 3
    # groups are assigned by sorted distinct value
    assert p.group_of.tolist() == [1, 0, 1, 2]
    assert p.label == "letters"


def test_partition_validation():
    with pytest.raises(DataError):
        GroupPartition(group_of=np.array([0, 2]), k=2)  # id out of range
    with pytest.raises(DataError):
        GroupPartition(group_of=np.array([0, 0]), k=2)  # empty group
    with pytest.raises(DataError):
        GroupPartition(group_of=np.array([]), k=1)


def test_partition_sizes_are_the_group_counts():
    rng = np.random.default_rng(42)
    for k in (1, 3, 8):
        g = np.concatenate([np.arange(k), rng.integers(0, k, size=30)])
        part = GroupPartition(group_of=g, k=k)
        assert np.array_equal(part.sizes, np.bincount(g, minlength=k))
        drawn = random_partition(rng, 40, k)
        assert drawn.group_of.dtype == np.int64
        assert np.array_equal(drawn.sizes, np.bincount(drawn.group_of, minlength=k))
    # a partition named by hand still has every group checked non-empty
    with pytest.raises(DataError, match="non-empty"):
        GroupPartition(group_of=np.array([0, 1, 1, 3]), k=4)


def test_partition_validation_names_the_fault():
    with pytest.raises(DataError, match="lie in"):
        GroupPartition(group_of=np.array([0, 1, 3]), k=3)
    with pytest.raises(DataError, match="lie in"):
        GroupPartition(group_of=np.array([0, -1, 1]), k=2)
    with pytest.raises(DataError, match="non-empty"):
        GroupPartition(group_of=np.array([0, 2, 2, 0]), k=3)


# ---------------------------------------------------------------------------
# Utility kinds
# ---------------------------------------------------------------------------


def test_accuracy_and_mse_group_utilities():
    part = GroupPartition(group_of=np.array([0, 0, 1, 1]), k=2)
    preds = np.array([1, 0, 1, 1])
    targets = np.array([1, 1, 1, 0])
    acc = group_utilities(preds, targets, part, "accuracy")
    np.testing.assert_allclose(acc, [0.5, 0.5])

    vals = np.array([0.0, 1.0, 2.0, 3.0])
    tgt = np.array([0.0, 0.0, 0.0, 1.0])
    mse = group_utilities(vals, tgt, part, "mse")
    np.testing.assert_allclose(mse, [0.5, 4.0])
    # mse has one name: its former alias is refused
    with pytest.raises(ConfigError, match="prediction_error"):
        group_utilities(vals, tgt, part, "prediction_error")


def test_f1_hand_values():
    # TP=1, FP=1, FN=0 -> precision 1/2, recall 1 -> F1 = 2/3
    f1 = group_utilities(np.array([1, 1]), np.array([1, 0]), GroupPartition.whole(2), "f1")[0]
    assert f1 == pytest.approx(2.0 / 3.0)
    # no positives anywhere: denominator 0 scores 0 by convention
    whole = GroupPartition.whole(3)
    assert group_utilities(np.zeros(3), np.zeros(3), whole, "f1")[0] == 0.0
    assert group_utilities(np.ones(3), np.ones(3), whole, "f1")[0] == 1.0


@pytest.mark.parametrize("kind", ["mse", "accuracy", "f1"])
def test_stacked_group_utilities_match_masked_overall_utility(kind):
    # ranking scores a stack of models in one pass: each row agrees with the
    # masked one-group utility and with `group_utilities` of that one model
    def overall(p, t):
        return group_utilities(p, t, GroupPartition.whole(len(t)), kind)[0]

    rng = np.random.default_rng(38)
    m, n, k = 4, 90, 6
    if kind in ("accuracy", "f1"):
        targets = rng.integers(0, 2, size=n).astype(float)
        stack = rng.integers(0, 2, size=(m, n)).astype(float)
    else:
        targets = rng.normal(size=n)
        stack = targets + rng.normal(size=(m, n)) * rng.uniform(0.1, 2.0, size=(m, 1))
    for _ in range(5):
        part = random_partition(rng, n, k)
        if kind == "f1":
            # group 0 holds no positives at all: F1 there is 0/0, scored 0
            zero = part.group_of == 0
            targets[zero] = 0.0
            stack[:, zero] = 0.0
        got = metrics._score_groups(metrics._example_terms(stack, targets, kind), part, kind)
        assert got.shape == (m, k)
        want = np.array([
            [overall(row[part.group_of == g], targets[part.group_of == g]) for g in range(k)]
            for row in stack
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if kind == "f1":
            assert np.all(got[:, 0] == 0.0)
        for row, expected in zip(stack, got):
            assert np.array_equal(group_utilities(row, targets, part, kind), expected)


def test_group_utilities_alignment_errors():
    part = GroupPartition(group_of=np.array([0, 1, 0]), k=2)
    with pytest.raises(DataError):
        group_utilities(np.zeros(4), np.zeros(3), part, "mse")
    with pytest.raises(DataError):
        group_utilities(np.zeros((2, 3)), np.zeros(4), part, "mse")
    with pytest.raises(DataError):
        group_utilities(np.zeros((2, 2, 3)), np.zeros(3), part, "mse")
    # one model at a time: a stack is ranking's, through `_score_groups`
    with pytest.raises(DataError):
        group_utilities(np.zeros((2, 3)), np.zeros(3), part, "mse")


def test_spread_statistics_row_wise():
    rng = np.random.default_rng(39)
    u = rng.uniform(size=(5, 7))
    for higher in (False, True):
        rows = metrics._spread(u, higher)
        assert rows.shape == (5, 3)
        assert np.array_equal(rows, [metrics._spread(r, higher) for r in u])
        assert np.array_equal(rows[:, 0], u.min(axis=1) if higher else u.max(axis=1))
        assert np.array_equal(rows[:, 1], np.ptp(u, axis=1))


def test_worst_utility_orientation():
    # wu is the unluckiest group: the min for accuracy and f1, the max for mse
    part = GroupPartition(group_of=np.array([0, 0, 1, 1]), k=2)
    preds, targets = np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])
    for kind, groups, wu in [("accuracy", [0.5, 1.0], 0.5), ("f1", [2 / 3, 1.0], 2 / 3),
                             ("mse", [0.5, 0.0], 0.5)]:
        rep = build_report(preds, targets, np.zeros(4), part, kind)
        assert rep.per_group_utility == pytest.approx(groups) and rep.wu == pytest.approx(wu)
    assert higher_is_better("accuracy") and not higher_is_better("mse")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        group_utilities(np.zeros(2), np.zeros(2), GroupPartition.whole(2), "auc")


def test_overall_utility_alignment_errors():
    # the overall utility is the one-group partition's
    whole = GroupPartition.whole(3)
    with pytest.raises(DataError):
        group_utilities(np.zeros(3), np.zeros(4), whole, "mse")
    with pytest.raises(DataError):
        group_utilities(np.zeros((2, 3)), np.zeros((2, 3)), whole, "mse")
    # a report's per-example errors must align too
    with pytest.raises(DataError):
        build_report(np.zeros(4), np.zeros(4), np.zeros(2), GroupPartition.whole(4), "mse")


# ---------------------------------------------------------------------------
# MUD / TUD / VAR
# ---------------------------------------------------------------------------


def test_mud_hand_value():
    assert group_mse_report([0.8, 0.6, 0.7]).mud == pytest.approx(0.2)
    assert group_mse_report([0.5]).mud == 0.0


def test_mud_law_school_group_losses():
    # two-group MSEs 19.75e-2 and 12.42e-2 differ by 7.33e-2
    assert group_mse_report([0.1975, 0.1242]).mud == pytest.approx(7.33e-2)


def test_tud_hand_values():
    assert group_mse_report([0.8, 0.6]).tud == pytest.approx(0.2)
    assert group_mse_report([0.7, 0.7, 0.7]).tud == pytest.approx(0.0, abs=1e-12)
    assert group_mse_report([1.0, 0.0, 0.5]).tud == pytest.approx(1.0)


def test_tud_equals_mud_for_two_groups():
    rng = np.random.default_rng(30)
    for _ in range(100):
        rep = group_mse_report(rng.uniform(0.0, 1.0, size=2))
        assert rep.tud == pytest.approx(rep.mud, abs=1e-15)


def test_var_pred_error_population_variance():
    assert var_pred_error([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)
    assert var_pred_error([5.0]) == 0.0
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(DataError, match="non-empty 1-d"):
            var_pred_error(bad)


def test_near_optimal_losses_bound_every_partition():
    # if every per-example loss is <= 1e-9, no partition can show
    # meaningful disparity: MUD <= 2e-9 and VAR <= 1e-18 for all of them
    rng = np.random.default_rng(31)
    losses = rng.uniform(0.0, 1e-9, size=8)
    assert var_pred_error(losses) <= 1e-18
    for k in (2, 3):
        for assignment in all_surjective_assignments(8, k):
            assert np.ptp(group_means(losses, assignment)) <= 2e-9


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_build_report_and_round_trip():
    part = GroupPartition(group_of=np.array([0, 0, 1, 1]), k=2, label="sex")
    preds = np.array([0.5, 0.5, 0.9, 0.1])
    targets = np.array([0.0, 1.0, 1.0, 0.0])
    losses = (preds - targets) ** 2
    rep = build_report(preds, targets, losses, part, "mse")
    assert rep.utility == pytest.approx(float(losses.mean()))
    assert rep.wu == pytest.approx(max(rep.per_group_utility))
    assert rep.mud == pytest.approx(abs(rep.per_group_utility[0] - rep.per_group_utility[1]))
    assert rep.tud == pytest.approx(rep.mud)  # two groups
    assert rep.var == pytest.approx(float(np.var(losses)))
    assert rep.partition_label == "sex"
    again = MetricsReport(**dataclasses.asdict(rep))
    assert again == rep


def test_build_report_builds_the_terms_once(monkeypatch):
    # the partition's groups and the overall utility are scored from one
    # set of per-example terms
    counts = {}
    count_calls(monkeypatch, counts, "terms", metrics._example_terms, metrics)
    part = GroupPartition(group_of=np.array([0, 1, 1, 0]), k=2, label="g")
    preds = np.array([1.0, 0.0, 1.0, 1.0])
    targets = np.array([1.0, 1.0, 0.0, 1.0])
    rep = build_report(preds, targets, np.zeros(4), part, "f1")
    assert counts == {"terms": 1}
    assert rep.utility == group_utilities(preds, targets, GroupPartition.whole(4), "f1")[0]
    assert rep.per_group_utility == group_utilities(preds, targets, part, "f1").tolist()
    with pytest.raises(DataError):
        build_report(np.stack([preds, preds]), targets, np.zeros(4), part, "f1")


def test_build_report_makes_one_spread_pass(monkeypatch):
    # wu, mud and tud come from one max/min/mean pass over the group utilities
    counts = {}
    count_calls(monkeypatch, counts, "spread", metrics._spread, metrics)
    part = GroupPartition(group_of=np.array([0, 1, 2, 1, 0]), k=3)
    preds = np.array([0.5, 1.0, 2.0, 0.0, 1.5])
    rep = build_report(preds, np.ones(5), (preds - 1.0) ** 2, part, "mse")
    assert counts == {"spread": 1}
    assert [rep.wu, rep.mud, rep.tud] == metrics._spread(rep.per_group_utility).tolist()


@pytest.mark.parametrize("kind", ["mse", "accuracy", "f1"])
def test_overall_report_utility_is_its_one_group_utility(kind):
    # one formula: the utility of the whole set and of the one-group
    # partition agree to the last bit (n large enough for summation order
    # to show)
    rng = np.random.default_rng(40)
    n = 30_000
    if kind == "mse":
        targets = rng.normal(size=n)
        preds = targets + rng.normal(size=n)
    else:
        targets = rng.integers(0, 2, size=n).astype(float)
        preds = rng.integers(0, 2, size=n).astype(float)
    whole = GroupPartition.whole(n, label="overall")
    rep = build_report(preds, targets, (preds - targets) ** 2, whole, kind)
    assert rep.utility == rep.per_group_utility[0]
    assert rep.utility == group_utilities(preds, targets, whole, kind)[0]
    assert rep.partition_label == "overall"


# ---------------------------------------------------------------------------
# Random-partition ranking
# ---------------------------------------------------------------------------


def test_random_partition_covers_all_groups():
    rng = np.random.default_rng(32)
    for _ in range(50):
        part = random_partition(rng, n=12, k=5)
        assert part.k == 5
        assert len(np.unique(part.group_of)) == 5
    with pytest.raises(ConfigError):
        random_partition(rng, n=3, k=4)


def test_random_partition_one_group():
    # one group is always hit: no draw count to bound
    part = random_partition(np.random.default_rng(0), 7, 1)
    assert part.k == 1 and np.array_equal(part.group_of, np.zeros(7))


def test_random_partition_refuses_hopeless_split_without_drawing():
    # every group hit by 20 uniform draws over 20 groups: p = 20!/20^20,
    # about 4e7 expected draws
    rng = np.random.default_rng(40)
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match="draws expected"):
        random_partition(rng, 20, 20)
    assert rng.bit_generator.state == before
    with pytest.raises(ConfigError):
        random_partition(rng, 5, 0)
    # n = k: k^k / k! expected draws is 416 at k = 8 and 1067 at k = 9
    assert MAX_EXPECTED_DRAWS == 1000
    assert random_partition(rng, 8, 8).k == 8
    with pytest.raises(ConfigError):
        random_partition(rng, 9, 9)


def test_too_many_draws_matches_exact_sum():
    # the union bound, the negative-association bound and the float sum
    # each decide part of this grid
    for k in range(1, 61):
        for n in range(k, 400):
            assert metrics._too_many_draws(n, k) == exact_too_many_draws(n, k), (n, k)
    assert [metrics._too_many_draws(k, k) for k in (8, 9, 20)] == [False, True, True]
    # the last refused n and the first accepted one, found by bisection on
    # the exact sum: P is nearest 1 / MAX_EXPECTED_DRAWS, and neither bound
    # decides, so the float sum does
    for n, k in ((279, 100), (1146, 300), (2157, 500)):
        assert exact_too_many_draws(n, k) and not exact_too_many_draws(n + 1, k)
        assert metrics._too_many_draws(n, k) and not metrics._too_many_draws(n + 1, k)


def test_too_many_draws_needs_no_big_int_sum(monkeypatch):
    # the exact sum takes 5 s, 15 s and 40 s on these on a 2-vCPU Xeon;
    # (10000, 3000) is refused by the negative-association bound, the others
    # accepted by the float sum
    def big_int_sum(*args):
        raise AssertionError("math.comb called")

    monkeypatch.setattr(math, "comb", big_int_sum)
    assert metrics._too_many_draws(10_000, 3000)
    assert not metrics._too_many_draws(20_000, 3000)
    assert not metrics._too_many_draws(30_000, 4000)


@pytest.mark.parametrize("kind", ["mse", "accuracy", "f1"])
@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_table_matches_loop_oracle(kind, k, seed):
    rng = np.random.default_rng(41)
    n = 120
    if kind == "mse":
        targets = rng.normal(size=n)
        pm = {f"m{i}": targets + rng.normal(size=n) * (0.2 + 0.1 * i) for i in range(4)}
    else:
        targets = rng.integers(0, 2, size=n).astype(float)
        pm = {f"m{i}": np.where(rng.uniform(size=n) < 0.1 * (i + 1), 1 - targets, targets)
              for i in range(4)}
    pm["m0_copy"] = pm["m0"].copy()  # exact ties share the mean rank
    ranks = random_partition_rank(pm, targets, k=k, trials=25, seed=seed, kind=kind)
    assert np.array_equal(ranks, loop_random_partition_rank(pm, targets, k, 25, seed, kind))


@pytest.mark.parametrize("kind", ["mse", "accuracy", "f1"])
def test_rank_table_matches_loop_oracle_when_most_draws_are_rejected(kind):
    # n = 12 over k = 8 groups hits every group with p = 8! S(12, 8) / 8^12,
    # about 0.093: some 11 draws per trial, under MAX_EXPECTED_DRAWS, so the
    # resampling loop runs on almost every trial and must keep the stream
    n, k, trials = 12, 8, 30
    rng = np.random.default_rng(43)
    hits = sum(len(np.unique(rng.integers(0, k, size=n))) == k for _ in range(2000))
    assert 0.07 < hits / 2000 < 0.12
    if kind == "mse":
        targets = rng.normal(size=n)
        pm = {f"m{i}": targets + rng.normal(size=n) * (0.2 + 0.1 * i) for i in range(3)}
    else:
        targets = rng.integers(0, 2, size=n).astype(float)
        pm = {f"m{i}": np.where(rng.uniform(size=n) < 0.2 * (i + 1), 1 - targets, targets)
              for i in range(3)}
    ranks = random_partition_rank(pm, targets, k=k, trials=trials, seed=5, kind=kind)
    assert np.array_equal(ranks, loop_random_partition_rank(pm, targets, k, trials, 5, kind))


def rank_of(pm, ranks, method, metric):
    return float(ranks[list(pm).index(method), RANK_METRICS.index(metric)])


@pytest.mark.parametrize("ties", [True, False])
def test_average_ranks_match_scipy_rankdata(ties):
    rng = np.random.default_rng(38)
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 7)), 3)
        x = rng.integers(0, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
        # the two calls random_partition_rank makes: methods along axis 1 of
        # [trials, methods, metrics], and along a 1-d overall-utility vector
        assert np.array_equal(metrics._average_ranks(x, axis=1), stats.rankdata(x, method="average", axis=1))
        v = x[0, :, 0]
        assert np.array_equal(metrics._average_ranks(v, axis=0), stats.rankdata(v, method="average"))


def test_average_ranks_propagate_nan_like_scipy():
    x = np.array([[1.0, np.nan, 1.0], [2.0, 0.0, 2.0]])
    expected = stats.rankdata(x, method="average", axis=1)
    assert np.array_equal(metrics._average_ranks(x, axis=1), expected, equal_nan=True)


def test_rank_table_prefers_uniform_method():
    # method "flat" matches every target to the same modest error;
    # method "spiky" nails most examples but ruins a tail -> flat must
    # win the dispersion metrics on almost every random partition
    rng = np.random.default_rng(33)
    n = 200
    targets = rng.normal(size=n)
    flat = targets + 0.3
    spiky = targets.copy()
    spiky[:20] += 0.9
    pm = {"flat": flat, "spiky": spiky}
    ranks = random_partition_rank(pm, targets, k=10, trials=60, seed=0, kind="mse")
    assert rank_of(pm, ranks, "flat", "mud") < rank_of(pm, ranks, "spiky", "mud")
    assert rank_of(pm, ranks, "flat", "tud") < rank_of(pm, ranks, "spiky", "tud")
    # spiky concentrates its error on 10% of examples but has the lower
    # overall mse (20 * 0.81 / 200 = 0.081 < 0.09), so it wins utility
    assert rank_of(pm, ranks, "spiky", "utility") < rank_of(pm, ranks, "flat", "utility")


def test_rank_table_identical_methods_tie():
    preds = np.ones(30) * 0.5
    targets = np.zeros(30)
    ranks = random_partition_rank(
        {"a": preds, "b": preds.copy()}, targets, k=3, trials=10, seed=1, kind="mse"
    )
    assert ranks.shape == (2, len(RANK_METRICS)) and np.all(ranks == 1.5)


def test_rank_table_deterministic_in_seed():
    rng = np.random.default_rng(34)
    targets = rng.normal(size=50)
    pm = {"m1": targets + rng.normal(size=50) * 0.1, "m2": targets + 0.2}
    t1 = random_partition_rank(pm, targets, k=4, trials=20, seed=9, kind="mse")
    t2 = random_partition_rank(pm, targets, k=4, trials=20, seed=9, kind="mse")
    assert np.array_equal(t1, t2)


def test_rank_accuracy_orientation():
    targets = np.array([1, 1, 1, 0, 0, 0] * 5)
    good = targets.copy()
    bad = 1 - targets
    pm = {"good": good, "bad": bad}
    ranks = random_partition_rank(pm, targets, k=2, trials=15, seed=2, kind="accuracy")
    assert rank_of(pm, ranks, "good", "utility") == 1.0
    assert rank_of(pm, ranks, "good", "wu") == 1.0


def test_sampled_mud_matches_enumeration():
    # exact expectation over all surjective assignments vs sample mean
    rng = np.random.default_rng(35)
    n, k = 10, 3
    targets = np.zeros(n)
    preds = rng.uniform(0.0, 1.0, size=n)
    losses = preds**2

    exact = []
    for assignment in all_surjective_assignments(n, k):
        exact.append(np.ptp(group_means(losses, assignment)))
    exact_mean = float(np.mean(exact))

    trials = 3000
    sampled = []
    for _ in range(trials):
        part = random_partition(rng, n, k)
        sampled.append(np.ptp(group_utilities(preds, targets, part, "mse")))
    sampled = np.asarray(sampled)
    se = sampled.std(ddof=1) / np.sqrt(trials)
    assert abs(sampled.mean() - exact_mean) <= 5.0 * se


# ---------------------------------------------------------------------------
# Significance
# ---------------------------------------------------------------------------


def test_significance_matches_scipy_welch():
    rng = np.random.default_rng(36)
    for _ in range(300):
        a = rng.normal(size=rng.integers(2, 13))
        b = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0), size=rng.integers(2, 13))
        expected = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
        assert significance_test(a, b) == pytest.approx(expected, rel=1e-12, abs=0)


def test_significance_one_constant_side_is_silent_and_matches_scipy():
    # a method whose quantized accuracy is equal on every seed: scipy warns
    # of precision loss on the constant side, the package must not
    a, b = [0.4, 0.4, 0.4], [0.1, 0.2, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert significance_test(a, b) == pytest.approx(expected, rel=1e-12, abs=0)


def test_significance_tail_is_within_1e_12_of_scipy_at_large_samples_and_far_tails(monkeypatch):
    # the Student-t tail is the package's own: at large df, where
    # lgamma(a + 1/2) - lgamma(a) cancels, and in tails down to p ~ 1e-250
    rng = np.random.default_rng(38)
    for n, farthest in ((100, 36.0), (1_000, 1.76), (10_000, 0.49)):
        a, b = rng.normal(size=n), rng.normal(size=n)
        pvalues = []
        for shift in np.linspace(0.0, farthest, 13):
            expected = float(stats.ttest_ind(a, b + shift, equal_var=False).pvalue)
            assert significance_test(a, b + shift) == pytest.approx(expected, rel=1e-12, abs=0)
            pvalues.append(expected)
        assert pvalues[0] > 0.01 and 1e-270 < pvalues[-1] < 1e-230
    # equal means, unequal spreads: t == 0
    assert significance_test([1.0, 2.0, 3.0], [0.0, 2.0, 4.0]) == 1.0
    monkeypatch.setattr(metrics, "MAX_BETA_TERMS", 1)
    with pytest.raises(NumericError, match="did not converge in 1 terms"):
        significance_test([1.0, 2.0, 3.0], [0.0, 2.0, 5.0])


def test_significance_does_not_depend_on_the_samples_scale():
    # Welch's t is unchanged when both samples are scaled by one factor; the
    # moments used to underflow or overflow at the ends of the float range
    rng = np.random.default_rng(39)
    a, b = rng.normal(size=5), rng.normal(0.5, 2.0, size=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-900, 900):
            assert significance_test(a * 2.0 ** k, b * 2.0 ** k) == significance_test(a, b)
            assert significance_test(a * 2.0 ** k, a * 2.0 ** k) == 1.0
        assert significance_test([0.0, 1e-170], [0.0, 1e-170]) == 1.0
        assert significance_test([0.0, 1e-200], [0.0, 2e-200]) == pytest.approx(
            significance_test([0.0, 1.0], [0.0, 2.0]), rel=1e-15, abs=0)
        assert significance_test([1e308, -1e308], [0.0, 0.1]) == 1.0


def test_significance_degenerate_and_separated():
    assert significance_test([1.0, 1.0, 1.0], [1.0, 1.0]) == 1.0
    assert significance_test([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == 0.0
    # 0.4 is not exactly representable, so its sample variance carries float
    # noise; constancy must still be recognized
    assert significance_test([0.4, 0.4, 0.4], [0.1, 0.1, 0.1]) == 0.0
    rng = np.random.default_rng(37)
    a = rng.normal(0.0, 1e-9, size=5)
    b = 1.0 + rng.normal(0.0, 1e-9, size=5)
    assert significance_test(a, b) < 1e-6


def test_significance_needs_two_per_side():
    with pytest.raises(ConfigError):
        significance_test([1.0], [1.0, 2.0])


def saved_runs(tmp_path, pm, targets):
    """Paths of saved records, one per `method_seed0` -> predictions entry."""
    paths = []
    overall = GroupPartition.whole(len(targets), label="overall")
    for name, preds in pm.items():
        report = build_report(preds, targets, (preds - targets) ** 2, overall, "mse")
        rec = RunRecord(
            method=name.split("_")[0], seed=0, per_epoch_loss=[1.0], selected_epoch=0,
            params=np.zeros(1), metrics={"overall": report}, utility_kind="mse",
            test_predictions=preds, test_targets=targets,
        )
        paths.append(str(tmp_path / f"{name}.json"))
        rec.save(paths[-1])
    return paths


def test_rank_table_csv(tmp_path, capsys):
    # `vfair rank --out` writes a header and one row per run, each rank
    # to 6 significant digits, with CSV's CRLF line ends
    targets = np.zeros(20)
    pm = {"a_seed0": np.full(20, 0.1), "b_seed0": np.full(20, 0.2)}
    paths = saved_runs(tmp_path, pm, targets)
    out = tmp_path / "rank.csv"
    argv = ["rank", "--runs", *paths, "--k", "2", "--trials", "5", "--seed", "3", "--out", str(out)]
    assert cli_main(argv) == 0
    ranks = random_partition_rank(pm, targets, k=2, trials=5, seed=3, kind="mse")
    expected = "method,utility,wu,mud,tud\r\n" + "".join(
        name + "," + ",".join(f"{v:.6g}" for v in row) + "\r\n"
        for name, row in zip(pm, ranks)
    )
    assert out.read_bytes() == expected.encode()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
    capsys.readouterr()


@pytest.mark.parametrize("option, code", [(("--k", "1"), 0), (("--seed", "-1"), 2)],
                         ids=["k_1", "negative_seed"])
def test_cli_rank_one_group_runs_and_negative_seed_exits_2(tmp_path, capsys, option, code):
    pm = {"a_seed0": np.full(20, 0.1), "b_seed0": np.full(20, 0.2)}
    paths = saved_runs(tmp_path, pm, np.zeros(20))
    assert cli_main(["rank", "--runs", *paths, "--trials", "3", *option]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "seed" in err
    else:
        assert err == ""
