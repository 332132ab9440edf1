import csv
import json

import numpy as np
import pytest
from scipy import stats

from vfair.cli import main as cli_main
from vfair.errors import ConfigError, DataError, NumericError
from vfair.harness import (
    Adagrad,
    AggregateTable,
    RunRecord,
    Sgd,
    TRACE_COLUMNS,
    aggregate,
    build_datasets,
    build_model_spec,
    config_from_dict,
    emit_loss_curve,
    load_config,
    resolve_utility,
    run_experiment,
    select_epoch,
    write_trace,
)
from vfair.metrics import MetricsReport


def tiny_config(**overrides):
    d = {
        "dataset": {
            "kind": "synthetic",
            "n": 160,
            "group_ratio": 0.3,
            "feature_dim": 3,
            "minority_shift": 1.0,
            "noise_std": 0.1,
            "task": "regression_mse",
            "seed": 5,
            "test_fraction": 0.25,
            "split_seed": 1,
        },
        "model": {"hidden_dims": [8], "activation": "relu"},
        "methods": ["erm", "vfair_std"],
        "step_size": 0.05,
        "batch_size": 32,
        "epochs": 3,
        "seeds": [0],
    }
    d.update(overrides)
    return d


# -- config parsing ---------------------------------------------------------


def test_config_defaults_and_types():
    cfg = config_from_dict(tiny_config())
    assert cfg.methods == ("erm", "vfair_std")
    assert cfg.hidden_dims == (8,)
    assert cfg.optimizer == "sgd"
    assert cfg.epoch_selection == "final"
    assert cfg.utility == "auto"
    assert cfg.decay == 0.99
    assert cfg.lambda2_cap == 3.0
    assert cfg.seeds == (0,)
    assert cfg.test_fraction == 0.25
    assert cfg.synthetic is not None and cfg.synthetic.n == 160


def test_config_rejects_bad_sections():
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(methods=["erm", "gradient_boost"]))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(optimizer="adam"))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(epoch_selection="best"))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(seeds=[1, 1]))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(epochs=0))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config(mystery_knob=3))
    with pytest.raises(ConfigError):
        config_from_dict({"methods": ["erm"]})  # no dataset section
    bad_ds = tiny_config()
    bad_ds["dataset"] = {"kind": "parquet"}
    with pytest.raises(ConfigError):
        config_from_dict(bad_ds)
    missing = tiny_config()
    missing["dataset"] = {"kind": "csv", "path": "x.csv"}  # schema absent
    with pytest.raises(ConfigError):
        config_from_dict(missing)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_resolve_utility():
    assert resolve_utility("auto", "regression_mse") == "mse"
    assert resolve_utility("auto", "logistic_regression_mse") == "mse"
    assert resolve_utility("auto", "binary_bce") == "accuracy"
    assert resolve_utility("auto", "multiclass_ce") == "accuracy"
    assert resolve_utility("f1", "binary_bce") == "f1"
    assert resolve_utility("prediction_error", "binary_bce") == "mse"
    with pytest.raises(ConfigError):
        resolve_utility("accuracy", "regression_mse")
    with pytest.raises(ConfigError):
        resolve_utility("f1", "multiclass_ce")
    with pytest.raises(ConfigError):
        resolve_utility("mse", "multiclass_ce")


# -- optimizers -------------------------------------------------------------


def test_sgd_step_is_plain_descent():
    opt = Sgd(0.5)
    out = opt.step(np.array([1.0, -2.0]), np.array([4.0, 2.0]))
    np.testing.assert_allclose(out, [-1.0, -3.0])


def test_adagrad_matches_hand_accumulator():
    opt = Adagrad(0.1, dim=2, eps=1e-10)
    p = np.array([0.0, 0.0])
    g1 = np.array([3.0, 4.0])
    p = opt.step(p, g1)
    np.testing.assert_allclose(p, -0.1 * g1 / (np.array([3.0, 4.0]) + 1e-10))
    g2 = np.array([1.0, -2.0])
    accum = g1**2 + g2**2
    expect = p - 0.1 * g2 / (np.sqrt(accum) + 1e-10)
    p = opt.step(p, g2)
    np.testing.assert_allclose(p, expect)


def test_adagrad_steps_shrink_under_constant_gradient():
    opt = Adagrad(0.1, dim=1)
    p = np.array([5.0])
    deltas = []
    for _ in range(6):
        nxt = opt.step(p, np.array([2.0]))
        deltas.append(abs(float(nxt[0] - p[0])))
        p = nxt
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


# -- epoch selection --------------------------------------------------------


def test_select_epoch_final_and_harmless():
    losses = [0.9, 0.4, 0.35, 0.32]
    assert select_epoch(losses, "final", None) == 3
    assert select_epoch(losses, "harmless", 0.41) == 1
    assert select_epoch(losses, "harmless", 0.0) == 3
    # ties resolve to the earliest epoch
    assert select_epoch([0.5, 0.3, 0.5], "harmless", 0.5) == 0
    with pytest.raises(ConfigError):
        select_epoch(losses, "harmless", None)


def test_harmless_never_beats_final_epoch_distance():
    cfg = config_from_dict(
        tiny_config(methods=["erm", "vfair_std", "dro"], epochs=5,
                    epoch_selection="harmless", seeds=[0, 1])
    )
    records = run_experiment(cfg)
    refs = {r.seed: r.per_epoch_loss[-1] for r in records if r.method == "erm"}
    for rec in records:
        ref = refs[rec.seed]
        dist = np.abs(np.asarray(rec.per_epoch_loss) - ref)
        assert dist[rec.selected_epoch] <= dist[-1] + 1e-15


def test_harmless_without_reference_raises():
    cfg = config_from_dict(
        tiny_config(methods=["vfair_std"], epoch_selection="harmless", epochs=2)
    )
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_harmless_with_explicit_reference():
    d = tiny_config(methods=["vfair_std"], epoch_selection="harmless",
                    epochs=4, erm_reference_loss=1e9)
    records = run_experiment(config_from_dict(d))
    rec = records[0]
    # a huge reference makes the largest per-epoch loss the nearest one
    assert rec.selected_epoch == int(np.argmax(rec.per_epoch_loss))


# -- end-to-end training ----------------------------------------------------


def test_run_experiment_record_shape():
    cfg = config_from_dict(tiny_config(methods=["erm", "vfair_std", "dro"], seeds=[3]))
    records = run_experiment(cfg)
    assert [r.method for r in records] == ["erm", "vfair_std", "dro"]
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    for rec in records:
        assert len(rec.per_epoch_loss) == cfg.epochs
        assert rec.selected_epoch == cfg.epochs - 1
        assert set(rec.metrics) == {"overall", "group"}
        assert rec.utility_kind == "mse"
        assert rec.params.shape == (spec.input_dim * 8 + 8 + 8 + 1,)
        assert rec.test_targets.shape == (test.n,)
        assert rec.test_predictions.shape == (test.n,)
        assert rec.metrics["overall"].n_examples == test.n
        assert rec.metrics["overall"].mud == 0.0  # single group
    assert records[0].trace == []
    assert len(records[1].trace) == cfg.epochs * 4  # 120 train rows / batch 32
    assert {"mu", "sigma", "lambda"} <= set(records[1].trace[0])
    assert set(records[2].trace[0]) == {"step", "eta"}


def test_training_reduces_mean_loss():
    cfg = config_from_dict(tiny_config(methods=["erm"], epochs=8))
    rec = run_experiment(cfg)[0]
    assert rec.per_epoch_loss[-1] < 0.5 * rec.per_epoch_loss[0]


def test_classification_run_uses_accuracy():
    d = tiny_config(methods=["erm"], epochs=4)
    d["dataset"]["task"] = "binary_bce"
    rec = run_experiment(config_from_dict(d))[0]
    assert rec.utility_kind == "accuracy"
    assert set(np.unique(rec.test_predictions)) <= {0.0, 1.0}
    assert 0.0 <= rec.metrics["overall"].utility <= 1.0


def test_run_experiment_is_deterministic():
    for optimizer in ("sgd", "adagrad"):
        cfg = config_from_dict(tiny_config(optimizer=optimizer, seeds=[2]))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert json.dumps(ra.to_json_dict(), sort_keys=True) == json.dumps(
                rb.to_json_dict(), sort_keys=True
            )


def test_run_record_round_trip(tmp_path):
    cfg = config_from_dict(tiny_config(methods=["vfair_std"], epochs=2))
    rec = run_experiment(cfg)[0]
    path = tmp_path / "run.json"
    rec.save(path)
    back = RunRecord.load(path)
    np.testing.assert_array_equal(back.params, rec.params)
    np.testing.assert_array_equal(back.test_predictions, rec.test_predictions)
    assert back.per_epoch_loss == rec.per_epoch_loss
    assert back.metrics["group"].to_dict() == rec.metrics["group"].to_dict()
    assert back.config == rec.config
    with pytest.raises(DataError):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "erm"}')
        RunRecord.load(bad)


def test_run_record_save_rejects_non_finite(tmp_path):
    rec = fake_record("vfair_var", 3, "mse", dict.fromkeys(["utility", "wu", "mud", "tud"], 1.0)
                      | {"var": float("inf")})
    path = tmp_path / "run.json"
    with pytest.raises(NumericError, match="vfair_var seed=3"):
        rec.save(path)
    assert not path.exists()


# -- aggregation ------------------------------------------------------------


def fake_record(method, seed, kind, scalars):
    report = MetricsReport(
        utility_kind=kind,
        utility=scalars["utility"],
        per_group_utility=(scalars["utility"],),
        wu=scalars["wu"],
        mud=scalars["mud"],
        tud=scalars["tud"],
        var=scalars["var"],
        n_examples=10,
        partition_label="overall",
    )
    return RunRecord(
        method=method,
        seed=seed,
        per_epoch_loss=[1.0],
        selected_epoch=0,
        params=np.zeros(1),
        metrics={"overall": report},
        utility_kind=kind,
        test_outputs=np.zeros(10),
        test_predictions=np.zeros(10),
        test_targets=np.zeros(10),
    )


def test_aggregate_matches_hand_recomputation():
    erm = [
        fake_record("erm", s, "mse", {"utility": u, "wu": u, "mud": 0.4, "tud": 0.4, "var": 0.2})
        for s, u in enumerate([1.0, 1.2, 0.8])
    ]
    fair = [
        fake_record("vfair_std", s, "mse",
                    {"utility": u, "wu": u, "mud": 0.1, "tud": 0.1, "var": 0.05})
        for s, u in enumerate([1.1, 1.0, 0.9])
    ]
    table = aggregate(erm + fair)
    rows = {r["method"]: r for r in table.rows}
    assert rows["erm"]["n_runs"] == 3
    assert rows["erm"]["utility_mean"] == pytest.approx(1.0)
    assert rows["erm"]["utility_std"] == pytest.approx(np.std([1.0, 1.2, 0.8], ddof=1))
    assert rows["erm"]["utility_p_vs_erm"] is None
    # mse is a cost, so improvement is baseline minus method
    assert rows["vfair_std"]["utility_impr_vs_erm"] == pytest.approx(0.0)
    assert rows["vfair_std"]["mud_impr_vs_erm"] == pytest.approx(0.3)
    assert rows["vfair_std"]["var_impr_vs_erm"] == pytest.approx(0.15)
    # mud is constant within each method, so the degenerate-variance rule applies
    assert rows["vfair_std"]["mud_p_vs_erm"] == 0.0
    p_util = stats.ttest_ind([1.0, 1.2, 0.8], [1.1, 1.0, 0.9], equal_var=False).pvalue
    assert rows["vfair_std"]["utility_p_vs_erm"] == pytest.approx(p_util)


def test_aggregate_orientation_flips_for_accuracy():
    erm = [fake_record("erm", s, "accuracy",
                       {"utility": 0.7, "wu": 0.6, "mud": 0.2, "tud": 0.2, "var": 0.1})
           for s in range(2)]
    fair = [fake_record("dro", s, "accuracy",
                        {"utility": 0.75, "wu": 0.7, "mud": 0.15, "tud": 0.15, "var": 0.1})
            for s in range(2)]
    rows = {r["method"]: r for r in aggregate(erm + fair).rows}
    assert rows["dro"]["utility_impr_vs_erm"] == pytest.approx(0.05)
    assert rows["dro"]["wu_impr_vs_erm"] == pytest.approx(0.1)
    assert rows["dro"]["mud_impr_vs_erm"] == pytest.approx(0.05)


def test_aggregate_single_seed_leaves_p_blank(tmp_path):
    recs = [
        fake_record("erm", 0, "mse", {"utility": 1.0, "wu": 1.0, "mud": 0.3, "tud": 0.3, "var": 0.2}),
        fake_record("dro", 0, "mse", {"utility": 0.9, "wu": 0.9, "mud": 0.2, "tud": 0.2, "var": 0.1}),
    ]
    table = aggregate(recs)
    rows = {r["method"]: r for r in table.rows}
    assert rows["dro"]["utility_std"] is None
    assert rows["dro"]["utility_p_vs_erm"] is None
    assert rows["dro"]["utility_impr_vs_erm"] == pytest.approx(0.1)
    out = tmp_path / "agg.csv"
    table.to_csv(out)
    with open(out, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [r["method"] for r in read] == ["erm", "dro"]
    assert read[1]["utility_p_vs_erm"] == ""
    assert float(read[1]["mud_impr_vs_erm"]) == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        aggregate([])


# -- traces and curves ------------------------------------------------------


def test_write_trace_union_schema(tmp_path):
    rows = [
        {"step": 0, "mu": 0.5, "sigma": 0.1, "lambda1": 0.0, "lambda2": 1.0,
         "lambda": 1.0, "grad_mu_norm": 2.0, "grad_dot": 0.3, "weights_min": 0.2},
        {"step": 1, "eta": 0.7},
    ]
    path = tmp_path / "trace.csv"
    write_trace(rows, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(TRACE_COLUMNS)
        got = list(reader)
    assert got[0]["eta"] == ""
    assert got[0]["mu"] == "0.5"
    assert got[1]["eta"] == "0.7"
    assert got[1]["sigma"] == ""


def test_emit_loss_curve_sorted_with_mean_row(tmp_path):
    cfg = config_from_dict(tiny_config(methods=["erm"], epochs=2))
    rec = run_experiment(cfg)[0]
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    path = tmp_path / "curve.csv"
    losses = emit_loss_curve(spec, rec.params, test, path=path)
    assert np.all(np.diff(losses) >= 0)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "loss"]
    assert len(rows) == test.n + 2
    assert rows[1][0] == "1" and rows[-2][0] == str(test.n)
    assert rows[-1][0] == "mean"
    assert float(rows[-1][1]) == pytest.approx(losses.mean())
    read_back = np.array([float(r[1]) for r in rows[1:-1]])
    np.testing.assert_allclose(read_back, losses)


# -- CLI --------------------------------------------------------------------


def write_config(tmp_path, d):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return path


def test_cli_train_rank_curve_compare(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(seeds=[0, 1]))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    runs = sorted(str(p) for p in (out / "runs").glob("*.json"))
    assert len(runs) == 4
    assert (out / "aggregate.csv").exists()
    assert (out / "traces" / "vfair_std_seed0.csv").exists()
    assert not (out / "traces" / "erm_seed0.csv").exists()

    rank_csv = tmp_path / "rank.csv"
    code = cli_main(["rank", "--runs", *runs, "--k", "4", "--trials", "10",
                     "--seed", "7", "--out", str(rank_csv)])
    assert code == 0
    with open(rank_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "utility", "wu", "mud", "tud"]
    assert len(rows) == 5

    curve_csv = tmp_path / "curve.csv"
    run_path = str(out / "runs" / "vfair_std_seed0.json")
    assert cli_main(["curve", "--run", run_path, "--out", str(curve_csv)]) == 0
    with open(curve_csv, newline="") as fh:
        curve_rows = list(csv.reader(fh))
    assert curve_rows[0] == ["rank", "loss"] and curve_rows[-1][0] == "mean"

    cmp_csv = tmp_path / "cmp.csv"
    assert cli_main(["compare", "--runs", *runs, "--out", str(cmp_csv)]) == 0
    with open(cmp_csv, newline="") as fh:
        cmp_rows = list(csv.DictReader(fh))
    assert {r["method"] for r in cmp_rows} == {"erm", "vfair_std"}
    capsys.readouterr()  # drain


def test_cli_train_bad_config_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(optimizer="adam"))
    code = cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = cli_main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_cli_rank_rejects_mismatched_runs(tmp_path, capsys):
    cfg_a = write_config(tmp_path, tiny_config(methods=["erm"]))
    out_a = tmp_path / "a"
    assert cli_main(["train", "--config", str(cfg_a), "--out", str(out_a)]) == 0
    d = tiny_config(methods=["erm"])
    d["dataset"]["n"] = 120  # different test split
    cfg_b = tmp_path / "cfg_b.json"
    cfg_b.write_text(json.dumps(d))
    out_b = tmp_path / "b"
    assert cli_main(["train", "--config", str(cfg_b), "--out", str(out_b)]) == 0
    code = cli_main([
        "rank",
        "--runs",
        str(out_a / "runs" / "erm_seed0.json"),
        str(out_b / "runs" / "erm_seed0.json"),
    ])
    assert code == 2
    assert "test split" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_cli_train_divergence_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(step_size=50.0))
    out = tmp_path / "o"
    code = cli_main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: erm seed=0 epoch=") and " step=" in err
    for record in (out / "runs").glob("*.json"):
        assert "Infinity" not in record.read_text() and "NaN" not in record.read_text()
