"""Acceptance gates for the whole package, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
last gate needs a user-supplied recidivism CSV (see README) and skips
itself when the VFAIR_COMPAS_CSV environment variable is unset.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from helpers import (
    all_set_partitions,
    config_from_readme,
    directional_derivative_fd,
    group_means,
    group_mse_report,
)
from vfair import harness
from vfair.cli import main as cli_main
from vfair.data import DatasetSchema
from vfair.harness import METHODS, RunRecord, config_from_dict, run_experiment
from vfair.metrics import (
    GroupPartition,
    group_utilities,
    random_partition_rank,
    significance_test,
)
from vfair.nnet import (
    Batch,
    ModelSpec,
    init_params,
    forward,
    parameter_count,
    per_example_losses,
    weighted_gradient,
)
from vfair.update import TRACE_ROW, UpdateState, ema_update, grad_mu, vfair_direction

# running mean = batch mean, lam2 uncapped: the trained std_dev direction is
# then the paper's lam * g_mu + g_sigma with batch statistics
BATCH_STATISTICS = UpdateState(decay=0.0, lambda2_cap=np.inf)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_instance(rng):
    """Small random (model, batch) pair, at most 50 parameters, b <= 16."""
    task = ("regression_mse", "binary_bce", "logistic_regression_mse", "multiclass_ce")[
        int(rng.integers(4))
    ]
    input_dim = int(rng.integers(1, 5))
    hidden = ((), (2,), (4,), (3, 2))[int(rng.integers(4))]
    output_dim = int(rng.integers(2, 4)) if task == "multiclass_ce" else 1
    activation = ("relu", "sigmoid", "identity")[int(rng.integers(3))]
    spec = ModelSpec(
        input_dim=input_dim,
        hidden_dims=hidden,
        output_dim=output_dim,
        task=task,
        activation=activation,
    )
    assert parameter_count(spec) <= 50
    b = int(rng.integers(2, 17))
    x = rng.normal(size=(b, input_dim))
    if task == "regression_mse":
        targets = rng.normal(size=b)
    elif task == "multiclass_ce":
        targets = rng.integers(0, output_dim, size=b).astype(np.float64)
    else:
        targets = rng.integers(0, 2, size=b).astype(np.float64)
    batch = Batch(features=x, targets=targets)
    params = init_params(spec, int(rng.integers(10_000))) + 0.5 * rng.normal(
        size=parameter_count(spec)
    )
    return spec, params, batch


def test_gradient_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    n_instances = 120
    max_rel = 0.0
    max_fd = 0.0
    for _ in range(n_instances):
        spec, params, batch = random_instance(rng)
        trained, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
        row = dict(zip(TRACE_ROW, row))
        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        weights = row["lambda"] + (losses - row["mu"]) / row["sigma"]
        one_pass = weighted_gradient(spec, params, batch, weights)
        rel = np.linalg.norm(trained - one_pass) / max(np.linalg.norm(trained), 1e-12)
        max_rel = max(max_rel, rel)

        direction = rng.normal(size=len(params))
        direction /= np.linalg.norm(direction)
        analytic = float(trained @ direction)
        fd = row["lambda"] * directional_derivative_fd(
            spec, params, batch, "mean", direction
        ) + directional_derivative_fd(spec, params, batch, "sigma", direction)
        max_fd = max(max_fd, abs(analytic - fd) / max(1.0, abs(analytic)))
    elapsed = time.perf_counter() - t0
    ok = max_rel <= 1e-10 and max_fd <= 1e-5 and elapsed < 10.0
    report(
        "gradient oracle",
        ok,
        f"{n_instances} instances, trained direction vs one reweighted backward rel err "
        f"{max_rel:.2e} (<=1e-10), fd err {max_fd:.2e} (<=1e-5), {elapsed:.2f}s (<10s)",
    )


def test_coefficient_logic_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20241)
    n_batches = 250
    worst_margin = np.inf
    worst_weight = np.inf
    for _ in range(n_batches):
        spec, params, batch = random_instance(rng)
        trained, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
        row = dict(zip(TRACE_ROW, row))
        gmu = grad_mu(spec, params, batch)
        worst_margin = min(worst_margin, float(trained @ gmu - gmu @ gmu))
        worst_weight = min(worst_weight, row["weights_min"])
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-12 and worst_weight >= -1e-12 and elapsed < 5.0
    report(
        "coefficient logic",
        ok,
        f"{n_batches} batches, min (direction.gmu - |gmu|^2) {worst_margin:.2e} "
        f"(>=-1e-12), min weight {worst_weight:.2e} (>=-1e-12), {elapsed:.2f}s (<5s)",
    )


def test_partition_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20242)

    example = np.array([1.0, 2.0, 3.0])
    var_example = example.var()
    pair_example = sum(
        (example[i] - example[j]) ** 2 for i in range(3) for j in range(i + 1, 3)
    ) / 9.0
    assert abs(var_example - 2.0 / 3.0) <= 1e-12
    assert abs(pair_example - 2.0 / 3.0) <= 1e-12

    worst_identity = 0.0
    worst_sorted_range = 0.0
    checked = 0
    for n in range(2, 9):
        partitions = all_set_partitions(n)
        for _ in range(4):
            losses = rng.uniform(0.0, 3.0, size=n)
            var = float(losses.var())
            pair_sum = sum(
                (losses[i] - losses[j]) ** 2
                for i in range(n)
                for j in range(i + 1, n)
            )
            worst_identity = max(worst_identity, abs(var - pair_sum / n**2))

            v = np.sort(losses)
            worst_sorted_range = max(
                worst_sorted_range, abs((v[-1] - v[0]) - float(np.abs(np.diff(v)).sum()))
            )

            spread = float(losses.max() - losses.min())
            bound = n * np.sqrt(n * (n - 1) / 2.0 * var)
            assert spread <= bound + 1e-12
            for assignment in partitions:
                disparity = np.ptp(group_means(losses, assignment))
                assert disparity <= spread + 1e-12
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-12 and worst_sorted_range <= 1e-12 and elapsed < 30.0
    report(
        "partition bound",
        ok,
        f"{checked} partition checks (all partitions, N<=8): disparity <= spread <= "
        f"N*sqrt(N(N-1)/2*Var); variance identity err {worst_identity:.1e}, sorted "
        f"range identity err {worst_sorted_range:.1e} (<=1e-12), {elapsed:.1f}s (<30s)",
    )


def test_worst_case_uniform_collapse():
    t0 = time.perf_counter()
    cfg = config_from_dict(
        {
            "dataset": {
                "kind": "synthetic",
                "n": 2000,
                "group_ratio": 0.3,
                "feature_dim": 4,
                "minority_shift": 2.0,
                "noise_std": 0.1,
                "task": "logistic_regression_mse",
                "seed": 11,
                "test_fraction": 0.3,
                "split_seed": 2,
            },
            "model": {"hidden_dims": [], "activation": "identity"},
            "methods": ["dro"],
            "optimizer": "adagrad",
            "step_size": 0.5,
            "batch_size": 64,
            "epochs": 40,
            "dro_alpha_min": 0.2,
            "seeds": [0],
        }
    )
    rec = next(run_experiment(cfg))[0]
    overall = rec.metrics["overall"]
    elapsed = time.perf_counter() - t0
    ok = 0.23 <= overall.utility <= 0.27 and overall.var <= 1e-3 and elapsed < 120.0
    report(
        "worst-case uniform collapse",
        ok,
        f"mean per-example loss {overall.utility:.5f} (in [0.23, 0.27]), "
        f"VAR {overall.var:.2e} (<=1e-3), {elapsed:.1f}s (<2min)",
    )


@pytest.fixture(scope="module")
def biased_regression_runs():
    cfg = config_from_dict(
        {
            "dataset": {
                "kind": "synthetic",
                "n": 1500,
                "group_ratio": 0.3,
                "feature_dim": 4,
                "minority_shift": 1.0,
                "noise_std": 0.1,
                "task": "regression_mse",
                "seed": 9,
                "test_fraction": 0.3,
                "split_seed": 3,
            },
            "model": {"hidden_dims": [16, 8], "activation": "relu"},
            "methods": ["erm", "vfair_std"],
            "optimizer": "sgd",
            "step_size": 0.01,
            "batch_size": 128,
            "epochs": 150,
            "seeds": list(range(10)),
            "epoch_selection": "harmless",
        }
    )
    t0 = time.perf_counter()
    records = [rec for rec, _ in run_experiment(cfg)]
    return records, time.perf_counter() - t0


def test_harmless_variance_reduction(biased_regression_runs):
    records, train_time = biased_regression_runs
    mse = {"erm": [], "vfair_std": []}
    var = {"erm": [], "vfair_std": []}
    for rec in records:
        overall = rec.metrics["overall"]
        mse[rec.method].append(overall.utility)
        var[rec.method].append(overall.var)
    p = significance_test(var["erm"], var["vfair_std"])
    ratio = float(np.mean(mse["vfair_std"]) / np.mean(mse["erm"]))
    reduced = float(np.mean(var["vfair_std"])) < float(np.mean(var["erm"]))
    ok = reduced and p < 0.05 and ratio <= 1.05 and train_time < 300.0
    report(
        "harmless variance reduction",
        ok,
        f"10 seeds: VAR {np.mean(var['erm']):.4f} -> {np.mean(var['vfair_std']):.4f} "
        f"(Welch p={p:.2e} < 0.05), MSE ratio {ratio:.3f} (<=1.05), "
        f"{train_time:.1f}s (<5min)",
    )


def test_random_partition_rank_protocol(biased_regression_runs):
    records, _ = biased_regression_runs
    t0 = time.perf_counter()
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.seed, {})[rec.method] = rec
    ranks = {"erm": [], "vfair_std": []}
    for seed, pair in sorted(by_seed.items()):
        table = random_partition_rank(
            {m: rec.test_predictions for m, rec in pair.items()},
            pair["erm"].test_targets,
            k=10,
            trials=100,
            seed=1000 + seed,
            kind="mse",
        )
        for method in ranks:
            ranks[method].append(table[list(pair).index(method)])
    avg = {m: np.mean(ranks[m], axis=0) for m in ranks}  # [utility, wu, mud, tud]
    mud_better = avg["vfair_std"][2] < avg["erm"][2]
    tud_better = avg["vfair_std"][3] < avg["erm"][3]
    elapsed = time.perf_counter() - t0
    ok = mud_better and tud_better and elapsed < 60.0
    report(
        "random-partition rank",
        ok,
        f"100 partitions x K=10 x 10 seeds: MUD rank {avg['vfair_std'][2]:.3f} vs "
        f"{avg['erm'][2]:.3f}, TUD rank {avg['vfair_std'][3]:.3f} vs "
        f"{avg['erm'][3]:.3f} (strictly better), {elapsed:.1f}s (<1min)",
    )


def test_metric_unit_values():
    m = group_mse_report([0.8, 0.6, 0.7]).mud
    mud_ok = abs(m - 0.2) <= 1e-12

    rng = np.random.default_rng(20243)
    tud_ok = True
    for _ in range(50):
        r = group_mse_report(rng.uniform(0.0, 1.0, size=2))
        tud_ok = tud_ok and abs(r.tud - r.mud) <= 1e-12

    f1 = group_utilities(np.array([1.0, 1.0]), np.array([1.0, 0.0]), GroupPartition.whole(2), "f1")
    f1 = f1[0]
    f1_ok = abs(f1 - 2.0 / 3.0) <= 1e-12

    ema_ok = True
    value, beta, target = 0.0, 0.99, 0.7
    for t in range(1, 121):
        value = ema_update(value, np.array([target]), beta)
        closed = target * (1.0 - beta**t)
        ema_ok = ema_ok and abs(value - closed) <= 1e-12 * max(1.0, abs(closed))

    ok = mud_ok and tud_ok and f1_ok and ema_ok
    report(
        "metric unit values",
        ok,
        f"mud([0.8,0.6,0.7])={m:.12f} (=0.2), tud==mud at K=2 over 50 draws, "
        f"f1(TP=1,FP=1,FN=0)={f1:.12f} (=2/3), running-mean closed form m(1-b^t) exact",
    )


def test_training_ignores_the_sensitive_column(tmp_path):
    # the paper's premise, fairness with no demographic prior: `vfair train`
    # on a CSV whose sensitive column is permuted trains every method to the
    # same bits, and only the metrics of the sensitive partition move
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    n = 240
    x = rng.normal(size=(n, 2))
    group = np.where(rng.uniform(size=n) < 0.3, "b", "a")
    y = x @ [1.0, -0.5] + (group == "b") * 1.0 + 0.1 * rng.normal(size=n)
    schema = {"features": [["x0", "numeric"], ["x1", "numeric"]], "label": "y",
              "sensitive": ["group"], "task": "regression_mse"}
    outs = []
    for name, column in (("kept", group), ("permuted", rng.permutation(group))):
        rows = (f"{a!r},{b!r},{g},{v!r}\n" for (a, b), g, v in zip(x.tolist(), column, y.tolist()))
        (tmp_path / f"{name}.csv").write_text("x0,x1,group,y\n" + "".join(rows))
        config = {
            "dataset": {"kind": "csv", "path": str(tmp_path / f"{name}.csv"), "schema": schema,
                        "split_seed": 1},
            "model": {"hidden_dims": [8]}, "methods": list(METHODS), "step_size": 0.05,
            "batch_size": 32, "epochs": 4, "seeds": [0], "epoch_selection": "harmless",
        }
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        outs.append(tmp_path / name)
        assert cli_main(["train", "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(outs[-1])]) == 0
    moved = []
    for method in METHODS:
        stem = f"{method}_seed0"
        a, b = (RunRecord.load(out / "runs" / f"{stem}.json") for out in outs)
        assert np.array_equal(a.params, b.params), method
        assert a.per_epoch_loss == b.per_epoch_loss and a.selected_epoch == b.selected_epoch
        assert np.array_equal(a.test_predictions, b.test_predictions)
        assert np.array_equal(a.test_targets, b.test_targets)
        assert a.metrics["overall"] == b.metrics["overall"]
        traces = [out / "traces" / f"{stem}.csv" for out in outs]
        assert traces[0].exists() == traces[1].exists() == (method != "erm")
        if method != "erm":
            assert traces[0].read_bytes() == traces[1].read_bytes(), method
        moved.append(a.metrics["group"] != b.metrics["group"])
    elapsed = time.perf_counter() - t0
    ok = all(moved) and elapsed < 3.0
    report(
        "training ignores the sensitive column",
        ok,
        f"{len(METHODS)} methods: params, per-epoch losses, traces and overall metrics "
        f"bit-equal under a permuted sensitive column; group metrics moved in "
        f"{sum(moved)}/{len(moved)}, {elapsed:.1f}s (<3s)",
    )


def test_training_ignores_the_sensitive_columns_on_the_readme_config(monkeypatch):
    # the same premise on the README config, cut to 30 epochs: each split's
    # sensitive columns permuted after `build_datasets` leave every run's
    # params, losses and trace bit-equal and move only the group metrics
    t0 = time.perf_counter()
    cfg = config_from_dict(config_from_readme(epochs=30))
    kept = list(run_experiment(cfg))
    build = harness.build_datasets
    rng = np.random.default_rng(45)

    def permuted(cfg):
        return tuple(dataclasses.replace(ds, sensitive={k: rng.permutation(v)
                                                        for k, v in ds.sensitive.items()})
                     for ds in build(cfg))

    monkeypatch.setattr(harness, "build_datasets", permuted)
    moved = []
    for (a, a_trace), (b, b_trace) in zip(kept, run_experiment(cfg), strict=True):
        assert (a.method, a.seed) == (b.method, b.seed)
        assert a.params.tobytes() == b.params.tobytes(), a.method
        assert a.per_epoch_loss == b.per_epoch_loss and a.selected_epoch == b.selected_epoch
        assert a_trace.keys() == b_trace.keys()
        assert all(a_trace[c].tobytes() == b_trace[c].tobytes() for c in a_trace), a.method
        assert a.test_predictions.tobytes() == b.test_predictions.tobytes()
        assert a.metrics.keys() == b.metrics.keys() == {"overall", "group"}
        assert a.metrics["overall"] == b.metrics["overall"]
        moved.append(a.metrics["group"] != b.metrics["group"])
    elapsed = time.perf_counter() - t0
    ok = all(moved) and elapsed < 3.0
    report(
        "training ignores the sensitive columns on the README config",
        ok,
        f"{len(kept)} runs at 30 epochs: params, per-epoch losses and traces bit-equal "
        f"under permuted sensitive columns; group metrics moved in {sum(moved)}/{len(moved)}, "
        f"{elapsed:.1f}s (<3s)",
    )


COMPAS_ENV = "VFAIR_COMPAS_CSV"


@pytest.mark.skipif(
    COMPAS_ENV not in os.environ,
    reason=f"set {COMPAS_ENV} to a recidivism CSV with the README schema to enable",
)
def test_recidivism_directional():
    t0 = time.perf_counter()
    cfg = config_from_dict(
        {
            "dataset": {
                "kind": "csv",
                "path": os.environ[COMPAS_ENV],
                "schema": {
                    "features": [
                        ["age", "numeric"],
                        ["priors_count", "numeric"],
                        ["juv_fel_count", "numeric"],
                        ["juv_misd_count", "numeric"],
                        ["juv_other_count", "numeric"],
                        ["c_charge_degree", "categorical"],
                        ["sex", "categorical"],
                    ],
                    "label": "two_year_recid",
                    "sensitive": ["race"],
                    "task": "logistic_regression_mse",
                },
                "test_fraction": 0.3,
                "split_seed": 4,
            },
            "model": {"hidden_dims": [32, 16], "activation": "relu"},
            "methods": ["erm", "vfair_std"],
            "optimizer": "adagrad",
            "step_size": 0.1,
            "batch_size": 128,
            "epochs": 60,
            "seeds": list(range(10)),
            "epoch_selection": "harmless",
        }
    )
    records = [rec for rec, _ in run_experiment(cfg)]
    disparity = {"erm": [], "vfair_std": []}
    var = {"erm": [], "vfair_std": []}
    for rec in records:
        disparity[rec.method].append(rec.metrics["race"].mud)
        var[rec.method].append(rec.metrics["race"].var)
    mud_better = np.mean(disparity["vfair_std"]) < np.mean(disparity["erm"])
    var_better = np.mean(var["vfair_std"]) < np.mean(var["erm"])
    elapsed = time.perf_counter() - t0
    ok = mud_better and var_better and elapsed < 600.0
    report(
        "recidivism directional",
        ok,
        f"10 seeds: MUD {np.mean(disparity['erm']):.4f} -> "
        f"{np.mean(disparity['vfair_std']):.4f}, VAR {np.mean(var['erm']):.4f} -> "
        f"{np.mean(var['vfair_std']):.4f} (both smaller), {elapsed:.0f}s (<10min)",
    )
