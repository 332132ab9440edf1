import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from helpers import config_from_readme, count_calls, dictwriter_csv, reference_train
from vfair import harness, nnet
from vfair.cli import main as cli_main
from vfair.errors import ConfigError, DataError, NumericError
from vfair.harness import (
    METHODS,
    OPTIMIZERS,
    Adagrad,
    AggregateTable,
    ExperimentConfig,
    RunRecord,
    Sgd,
    aggregate,
    build_datasets,
    build_model_spec,
    config_from_dict,
    emit_loss_curve,
    encode_json,
    evaluate,
    load_config,
    resolve_utility,
    run_experiment,
    write_trace,
)
from vfair.data import Dataset, take_batch
from vfair.metrics import MAX_TRIALS, MetricsReport
from vfair.nnet import ModelSpec, forward, init_params, parameter_count
from vfair.update import TRACE_ROW


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

    # a config naming only its dataset takes every other field from
    # ExperimentConfig's own defaults
    dataset = {k: v for k, v in tiny_config()["dataset"].items()
               if k not in ("seed", "test_fraction", "split_seed")}
    minimal = config_from_dict({"dataset": dataset})
    from_dataset = {"raw", "synthetic", "csv_path", "schema"}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in from_dataset:
            assert getattr(minimal, f.name) == f.default, f.name
    # a present key is typed, an explicit null keeps the default
    typed = config_from_dict(tiny_config(epochs=4, seeds=[2], erm_reference_loss=None))
    assert typed.epochs == 4 and typed.seeds == (2,) and typed.erm_reference_loss is None
    # a JSON string is not a number, whatever it spells
    for key, value in (("epochs", "4"), ("seeds", ["2"])):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            config_from_dict(tiny_config(**{key: value}))


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
    malformed = tiny_config()
    malformed["dataset"] = {"kind": "csv", "path": "x.csv",
                            "schema": {"features": 5, "label": "y", "task": "binary_bce"}}
    with pytest.raises(ConfigError, match="schema"):
        config_from_dict(malformed)
    with pytest.raises(ConfigError, match="'model'"):
        config_from_dict(tiny_config(model=[8]))
    with pytest.raises(ConfigError, match="erm_reference_loss"):
        config_from_dict(tiny_config(erm_reference_loss=float("nan")))


@pytest.mark.parametrize("section, key, value", [
    (None, "methods", "erm"),
    (None, "methods", 3),
    (None, "seeds", "12"),
    (None, "seeds", 7),
    ("model", "hidden_dims", "64"),
    ("model", "hidden_dims", 8),
])
def test_list_keys_reject_a_bare_string_or_number(section, key, value):
    # a string would otherwise be read character by character ("12" as
    # seeds 1 and 2), a number would fail without saying what is wanted
    d = tiny_config()
    (d[section] if section else d)[key] = value
    name = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=f"'{name}' must be a list"):
        config_from_dict(d)


@pytest.mark.parametrize("section, key", [
    ("model", "hidden_dim"),
    ("dataset", "tset_fraction"),
    ("dataset.schema", "lable"),
])
def test_cli_unknown_key_in_a_section_exits_2(tmp_path, capsys, section, key):
    # a misspelt key would otherwise be ignored, its field keeping the default
    d = tiny_config()
    if section == "dataset.schema":
        d["dataset"] = {"kind": "csv", "path": "data.csv", "schema": {
            "features": [["x", "numeric"]], "label": "y", "task": "regression_mse"}}
    target = d
    for name in section.split("."):
        target = target[name]
    target[key] = [16]
    code = cli_main(["train", "--config", str(write_config(tmp_path, d)),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: unknown config keys") and f"'{section}.{key}'" in err


def test_integer_keys_take_a_whole_float():
    cfg = config_from_dict(tiny_config(epochs=1e3, seeds=[2.0], model={"hidden_dims": [8.0]}))
    assert (cfg.epochs, cfg.seeds, cfg.hidden_dims) == (1000, (2,), (8,))
    assert type(cfg.epochs) is int and type(cfg.seeds[0]) is int


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    # Python refuses to parse an integer literal of more than 4300 digits
    bad.write_text('{"epochs": ' + "1" * 5001 + "}")
    with pytest.raises(ConfigError, match=f"config file {re.escape(str(bad))} is not valid JSON"):
        load_config(bad)
    bad.write_bytes(b'{"epochs": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError, match="is not valid JSON"):
        load_config(bad)


def test_resolve_utility():
    assert resolve_utility("auto", "regression_mse") == "mse"
    assert resolve_utility("auto", "logistic_regression_mse") == "mse"
    assert resolve_utility("auto", "binary_bce") == "accuracy"
    assert resolve_utility("auto", "multiclass_ce") == "accuracy"
    assert resolve_utility("f1", "binary_bce") == "f1"
    # one name per utility: the former alias of mse is refused, here and when a config loads
    with pytest.raises(ConfigError):
        resolve_utility("prediction_error", "binary_bce")
    with pytest.raises(ConfigError, match="prediction_error"):
        config_from_dict(tiny_config(utility="prediction_error"))
    with pytest.raises(ConfigError):
        resolve_utility("accuracy", "regression_mse")
    with pytest.raises(ConfigError):
        resolve_utility("f1", "multiclass_ce")
    with pytest.raises(ConfigError):
        resolve_utility("mse", "multiclass_ce")


def test_a_utility_the_task_cannot_take_is_refused_before_training(tmp_path, capsys,
                                                                      monkeypatch):
    # the task is known when the config loads, from the synthetic section
    # or from a csv schema (whose file is not read to find it)
    with pytest.raises(ConfigError, match="'f1' is not defined for task 'regression_mse'"):
        config_from_dict(tiny_config(utility="f1"))
    schema = {"features": [["x", "numeric"]], "label": "y", "task": "regression_mse"}
    csv_config = tiny_config(utility="accuracy")
    csv_config["dataset"] = {"kind": "csv", "path": str(tmp_path / "absent.csv"), "schema": schema}
    with pytest.raises(ConfigError, match="'accuracy' is not defined"):
        config_from_dict(csv_config)
    counts = {}
    count_calls(monkeypatch, counts, "train", harness._train_one, harness)
    out = tmp_path / "o"
    code = cli_main(["train", "--config", str(write_config(tmp_path, tiny_config(utility="f1"))),
                     "--out", str(out)])
    assert code == 2 and counts == {"train": 0}
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: utility 'f1'")


@pytest.mark.parametrize("key", ["methods", "seeds"])
def test_a_config_with_no_runs_is_refused_before_training(tmp_path, capsys, monkeypatch, key):
    # an empty list would build the data and the output directory first,
    # and only then find nothing to aggregate
    with pytest.raises(ConfigError, match=f"at least one {key[:-1]}"):
        config_from_dict(tiny_config(**{key: []}))
    counts = {}
    count_calls(monkeypatch, counts, "train", harness._train_one, harness)
    out = tmp_path / "o"
    code = cli_main(["train", "--config", str(write_config(tmp_path, tiny_config(**{key: []}))),
                     "--out", str(out)])
    assert code == 2 and counts == {"train": 0}
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: at least one {key[:-1]}")


@pytest.mark.parametrize("max_steps, trains", [(12, True), (11, False)])
def test_a_run_of_more_than_max_steps_is_refused_before_a_step(monkeypatch, max_steps, trains):
    # tiny_config: 120 training rows in batches of 32, 3 epochs = 12 steps
    monkeypatch.setattr(harness, "MAX_STEPS", max_steps)
    counts = {}
    count_calls(monkeypatch, counts, "step", harness.grad_mu, harness)
    cfg = config_from_dict(tiny_config(methods=["erm"]))
    if trains:
        list(run_experiment(cfg))
        assert counts == {"step": 12}
    else:
        with pytest.raises(ConfigError, match="batches per epoch is above MAX_STEPS = 11$"):
            next(run_experiment(cfg))
        assert counts == {"step": 0}


# -- optimizers -------------------------------------------------------------


def test_sgd_step_is_plain_descent():
    opt = Sgd(0.5)
    params = np.array([1.0, -2.0])
    assert opt.step(params, np.array([4.0, 2.0])) is None  # updates in place
    np.testing.assert_allclose(params, [-1.0, -3.0])


def test_adagrad_matches_hand_accumulator():
    opt = Adagrad(0.1, dim=2)
    p = np.array([0.0, 0.0])
    g1 = np.array([3.0, 4.0])
    opt.step(p, g1)
    np.testing.assert_allclose(p, -0.1 * g1 / (np.array([3.0, 4.0]) + 1e-10))
    g2 = np.array([1.0, -2.0])
    accum = g1**2 + g2**2
    expect = p - 0.1 * g2 / (np.sqrt(accum) + 1e-10)
    opt.step(p, g2)
    np.testing.assert_allclose(p, expect)


def test_adagrad_steps_shrink_under_constant_gradient():
    opt = Adagrad(0.1, dim=1)
    p = np.array([5.0])
    deltas = []
    for _ in range(6):
        before = float(p[0])
        opt.step(p, np.array([2.0]))
        deltas.append(abs(float(p[0]) - before))
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


# -- epoch selection --------------------------------------------------------


@pytest.mark.parametrize("selection", ["final", "harmless"])
def test_selected_epoch_is_final_or_nearest_reference(selection):
    # training updates its parameters in place, so a selected epoch that
    # shared memory with them would end on the final epoch's bits
    for optimizer in OPTIMIZERS:
        d = tiny_config(methods=["erm", "vfair_std", "dro"], epochs=5,
                        epoch_selection=selection, seeds=[0, 1], optimizer=optimizer)
        cfg = config_from_dict(d)
        records = [rec for rec, _ in run_experiment(cfg)]
        refs = {r.seed: r.per_epoch_loss[-1] for r in records if r.method == "erm"}
        for rec in records:
            if selection == "final" or rec.method == "erm":
                want = cfg.epochs - 1
            else:
                want = int(np.argmin(np.abs(np.asarray(rec.per_epoch_loss) - refs[rec.seed])))
            assert rec.selected_epoch == want
            # the record holds that epoch's parameters: a run stopped after it
            # ends on the same bits
            short = tiny_config(methods=[rec.method], epochs=want + 1, seeds=[rec.seed],
                                optimizer=optimizer)
            rerun = next(run_experiment(config_from_dict(short)))[0]
            assert np.array_equal(rerun.params, rec.params)


def test_harmless_never_beats_final_epoch_distance():
    cfg = config_from_dict(
        tiny_config(methods=["erm", "vfair_std", "dro"], epochs=5,
                    epoch_selection="harmless", seeds=[0, 1])
    )
    records = [rec for rec, _ in run_experiment(cfg)]
    refs = {r.seed: r.per_epoch_loss[-1] for r in records if r.method == "erm"}
    for rec in records:
        ref = refs[rec.seed]
        dist = np.abs(np.asarray(rec.per_epoch_loss) - ref)
        assert dist[rec.selected_epoch] <= dist[-1] + 1e-15


def test_minibatches_are_consecutive_slices_of_each_epoch_permutation(monkeypatch):
    # 120 train rows in batches of 32: three full batches and a short one of 24
    cfg = config_from_dict(tiny_config(methods=["erm"], seeds=[4]))
    train, _ = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    fed = []

    def recording_grad_mu(spec, params, batch):
        fed.append((batch.features.copy(), batch.targets.copy()))
        return np.zeros(parameter_count(spec))

    monkeypatch.setattr(harness, "grad_mu", recording_grad_mu)
    harness._train_one(cfg, spec, train, "erm", 4)
    rng = np.random.default_rng(4)
    want = []
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n)
        want += [order[s : s + cfg.batch_size] for s in range(0, train.n, cfg.batch_size)]
    assert [len(rows) for rows in want[:4]] == [32, 32, 32, 24]
    assert len(fed) == len(want)
    for (features, targets), rows in zip(fed, want):
        assert np.array_equal(features, train.features[rows])
        assert np.array_equal(targets, train.targets[rows])


@pytest.mark.parametrize("epochs", [1, 4])
@pytest.mark.parametrize("method", METHODS)
def test_a_run_unpacks_and_checks_targets_once(monkeypatch, method, epochs):
    # the run's (W, b) views and its checked training split serve every
    # step and epoch evaluation, however many there are
    cfg = config_from_dict(tiny_config(methods=[method], epochs=epochs))
    train, _ = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    counts = {}
    count_calls(monkeypatch, counts, "unpack", nnet.unpack, nnet)
    count_calls(monkeypatch, counts, "check", nnet._check_targets, nnet, harness)
    _, _, per_epoch_loss, _ = harness._train_one(cfg, spec, train, method, 0)
    assert len(per_epoch_loss) == epochs
    assert counts == {"unpack": 1, "check": 1}


@pytest.mark.parametrize("method", METHODS)
def test_a_run_makes_its_minibatch_views_once(monkeypatch, method):
    # each epoch gathers its shuffled rows into the run's one copy, whose
    # views, made before the first step, see them: 3 epochs of 120 rows in
    # batches of 32 take 3 gathers and 4 views, not one view per step
    cfg = config_from_dict(tiny_config(methods=[method], epochs=3))
    train, _ = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    assert (train.n, cfg.batch_size) == (120, 32)
    counts = {}
    count_calls(monkeypatch, counts, "subset", nnet.Batch.subset, nnet.Batch)
    harness._train_one(cfg, spec, train, method, 0)
    assert counts == {"subset": 3 + 4}


@pytest.mark.parametrize("batch_size", [40, 48, 150], ids=["divides_n", "tail", "exceeds_n"])
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("method", METHODS)
def test_training_is_bit_equal_to_steps_without_a_workspace(method, optimizer, batch_size):
    # one workspace per run, gradients written into its buffers and
    # in-place optimizer updates change no bit against steps that share nothing
    cfg = config_from_dict(tiny_config(methods=[method], optimizer=optimizer,
                                       batch_size=batch_size))
    train, _ = build_datasets(cfg)
    assert train.n == 120
    spec = build_model_spec(cfg, train)
    with np.errstate(over="ignore", invalid="ignore"):  # as run_experiment trains
        try:
            first = reference_train(cfg, spec, train, method, 3)
        except NumericError as exc:
            # vfair_var diverges at this step size: both break at the same step
            with pytest.raises(NumericError, match=re.escape(str(exc))):
                harness._train_one(cfg, spec, train, method, 3)
            return
        # selecting epoch 0 checks the kept parameters are a copy, not the live ones
        want = reference_train(cfg, spec, train, method, 3, first[2][0])
        got = harness._train_one(cfg, spec, train, method, 3, first[2][0])
    assert got[1] == want[1] == 0
    assert np.array_equal(got[0], want[0])
    assert got[2] == want[2]
    assert list(got[3]) == list(want[3])
    for column, values in want[3].items():
        assert np.array_equal(got[3][column], values), column


def test_each_split_checks_its_targets_where_it_enters(tmp_path):
    # regression targets are not 0/1 labels: a binary model refuses them
    # before its first step, its test evaluation or its loss curve
    cfg = config_from_dict(tiny_config(methods=["erm"]))
    train, test = build_datasets(cfg)
    spec = ModelSpec(input_dim=train.feature_dim, hidden_dims=(8,), output_dim=1,
                     task="binary_bce")
    params = init_params(spec, 0)
    with pytest.raises(DataError, match="0 or 1"):
        harness._train_one(cfg, spec, train, "erm", 0)
    with pytest.raises(DataError, match="0 or 1"):
        harness.evaluate(cfg, spec, test, params, "erm", 0)
    with pytest.raises(DataError, match="0 or 1"):
        emit_loss_curve(spec, params, test, tmp_path / "curve.csv")


def test_harmless_without_reference_raises():
    with pytest.raises(ConfigError, match="erm_reference_loss"):
        config_from_dict(tiny_config(methods=["vfair_std"], epoch_selection="harmless"))


def test_harmless_with_explicit_reference():
    # an explicit reference wins over an in-run erm's final loss, and erm
    # itself is selected against it
    for methods in (["vfair_std"], ["erm", "vfair_std"]):
        d = tiny_config(methods=methods, epoch_selection="harmless",
                        epochs=4, erm_reference_loss=1e9)
        records = [rec for rec, _ in run_experiment(config_from_dict(d))]
        assert [rec.method for rec in records] == methods
        for rec in records:
            # a huge reference makes the largest per-epoch loss the nearest one
            assert rec.selected_epoch == int(np.argmax(rec.per_epoch_loss)) != 3, rec.method


# -- end-to-end training ----------------------------------------------------


def test_run_experiment_record_shape():
    cfg = config_from_dict(tiny_config(methods=["erm", "vfair_std", "dro"], seeds=[3]))
    records, traces = map(list, zip(*run_experiment(cfg)))
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
    assert traces[0] == {}
    # 120 train rows / batch 32: 4 steps per epoch
    assert traces[1]["step"].tolist() == list(range(cfg.epochs * 4))
    assert {"mu", "sigma", "lambda"} <= set(traces[1])
    assert all(len(v) == cfg.epochs * 4 for v in traces[1].values())
    assert set(traces[2]) == {"step", "eta"}


def test_training_reduces_mean_loss():
    cfg = config_from_dict(tiny_config(methods=["erm"], epochs=8))
    rec = next(run_experiment(cfg))[0]
    assert rec.per_epoch_loss[-1] < 0.5 * rec.per_epoch_loss[0]


def test_classification_run_uses_accuracy():
    d = tiny_config(methods=["erm"], epochs=4)
    d["dataset"]["task"] = "binary_bce"
    rec = next(run_experiment(config_from_dict(d)))[0]
    assert rec.utility_kind == "accuracy"
    assert set(np.unique(rec.test_predictions)) <= {0.0, 1.0}
    assert 0.0 <= rec.metrics["overall"].utility <= 1.0


def test_run_experiment_is_deterministic():
    for optimizer in ("sgd", "adagrad"):
        cfg = config_from_dict(tiny_config(optimizer=optimizer, seeds=[2]))
        a = [rec for rec, _ in run_experiment(cfg)]
        b = [rec for rec, _ in run_experiment(cfg)]
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert json.dumps(ra.to_json_dict(), sort_keys=True) == json.dumps(
                rb.to_json_dict(), sort_keys=True
            )


def test_a_train_of_another_config_between_two_trains_changes_no_byte(tmp_path):
    # a run's minibatch views and a DRO config's eta constants are kept per
    # run and per batch size; a train at another batch size and adversary
    # in the same process must leave nothing the next train reads
    first = tiny_config(methods=list(METHODS), seeds=[0, 1], step_size=0.02, dro_alpha_min=0.3)
    other = first | {"batch_size": 48, "dro_alpha_min": 0.5}
    outs = []
    for i, d in enumerate((first, other, first)):
        outs.append(tmp_path / f"out{i}")
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[2] and len(files[0]) == 1 + 2 * 5 + 2 * 4
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[2] / rel).read_bytes(), rel
    assert (outs[0] / "runs/dro_seed0.json").read_bytes() != (outs[1] / "runs/dro_seed0.json").read_bytes()


def test_run_record_round_trip(tmp_path):
    cfg = config_from_dict(tiny_config(methods=["vfair_std"], epochs=2))
    rec = next(run_experiment(cfg))[0]
    path = tmp_path / "run.json"
    rec.save(path)
    back = RunRecord.load(path)
    np.testing.assert_array_equal(back.params, rec.params)
    np.testing.assert_array_equal(back.test_predictions, rec.test_predictions)
    assert back.per_epoch_loss == rec.per_epoch_loss
    assert back.metrics["group"] == rec.metrics["group"]
    assert back.config == rec.config
    with pytest.raises(DataError):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "erm"}')
        RunRecord.load(bad)


def test_save_refuses_a_record_whose_fields_disagree(tmp_path):
    # a record with no epoch losses would not load back, so save writes nothing
    cfg = config_from_dict(tiny_config(methods=["erm"], epochs=2))
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    params = init_params(spec, 0)
    rec = RunRecord("erm", 0, [], 0, params, test_targets=test.targets,
                    **evaluate(cfg, spec, test, params, "erm", 0))
    path = tmp_path / "run.json"
    with pytest.raises(ValueError, match="selected_epoch 0 is not an index of per_epoch_loss"):
        rec.save(path)
    assert not path.exists()
    rec.per_epoch_loss = [0.5]
    rec.save(path)
    assert RunRecord.load(path).per_epoch_loss == [0.5]


RECORD_KEYS = {
    "method", "seed", "per_epoch_loss", "selected_epoch", "params", "metrics",
    "utility_kind", "test_predictions", "test_targets", "config",
}


@pytest.mark.parametrize("task", ["regression_mse", "binary_bce"])
def test_record_determines_its_test_predictions(tmp_path, task):
    # a record stores the parameters and the config, not the raw outputs:
    # rebuilding the test split from the config and running the saved
    # parameters forward gives the stored predictions to the bit
    d = tiny_config(methods=["erm"], epochs=2)
    d["dataset"]["task"] = task
    path = tmp_path / "run.json"
    next(run_experiment(config_from_dict(d)))[0].save(path)
    assert set(json.loads(path.read_text())) == RECORD_KEYS
    rec = RunRecord.load(path)
    cfg = config_from_dict(rec.config)
    train, test = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    z = forward(spec, rec.params, take_batch(test, np.arange(test.n)))[:, 0]
    # mse scores the raw regression output, accuracy the label of logit > 0
    preds = z if task == "regression_mse" else (z > 0.0).astype(np.float64)
    assert rec.utility_kind == ("mse" if task == "regression_mse" else "accuracy")
    assert np.array_equal(preds, rec.test_predictions)


def test_evaluate_decodes_outputs_for_its_utility_kind():
    # a linear model with identity weights outputs its features, so each
    # decode is checked against the outputs it was given: hard labels for
    # accuracy and f1 (logit > 0, logit 0 itself label 0; the argmax class),
    # point predictions for mse (the sigmoid probability; the raw output)
    logits = np.array([[2.0], [-1.0], [0.0]])
    scores = np.array([[0.1, 3.0, -1.0], [5.0, 0.0, 0.0], [-2.0, 0.5, 0.75]])
    cases = [
        ("binary_bce", "accuracy", logits, [1.0, 0.0, 0.0]),
        ("logistic_regression_mse", "f1", logits, [1.0, 0.0, 0.0]),
        ("multiclass_ce", "accuracy", scores, [1.0, 0.0, 2.0]),
        ("binary_bce", "mse", logits, expit(logits[:, 0])),
        ("logistic_regression_mse", "mse", logits, expit(logits[:, 0])),
        ("regression_mse", "mse", np.array([[1.5], [-0.25], [0.0]]), [1.5, -0.25, 0.0]),
    ]
    for task, kind, x, want in cases:
        # a csv config names its task without reading the file
        schema = {"features": [["x", "numeric"]], "label": "y", "task": task}
        cfg = config_from_dict({"dataset": {"kind": "csv", "path": "unread.csv", "schema": schema},
                                "utility": kind})
        d_in = x.shape[1]
        spec = ModelSpec(input_dim=d_in, hidden_dims=(), output_dim=d_in, task=task)
        test = Dataset(features=x, targets=np.array([1.0, 0.0, 1.0]), sensitive={},
                       numeric_columns=())
        params = np.concatenate([np.eye(d_in).ravel(), np.zeros(d_in)])
        rec = RunRecord("erm", 0, [], 0, params, test_targets=test.targets,
                        **evaluate(cfg, spec, test, params, "erm", 0))
        assert rec.utility_kind == kind
        assert rec.test_predictions.dtype == np.float64
        assert np.array_equal(rec.test_predictions, want), (task, kind)


def test_run_record_save_writes_json_dumps_bytes_with_or_without_shared_targets(tmp_path):
    records = [rec for rec, _ in run_experiment(config_from_dict(tiny_config(seeds=[0, 1])))]
    targets_json = encode_json(records[0].test_targets.tolist())
    for rec in records:
        assert rec.test_targets is records[0].test_targets
        want = json.dumps(rec.to_json_dict(), sort_keys=True, allow_nan=False)
        rec.save(tmp_path / "alone.json")
        rec.save(tmp_path / "shared.json", targets_json)
        assert (tmp_path / "alone.json").read_text() == want
        assert (tmp_path / "shared.json").read_text() == want


def test_run_record_save_rejects_non_finite(tmp_path):
    rec = fake_record("vfair_var", 3, "mse", dict.fromkeys(["utility", "wu", "mud", "tud"], 1.0)
                      | {"var": float("inf")})
    path = tmp_path / "run.json"
    with pytest.raises(NumericError, match="vfair_var seed=3"):
        rec.save(path)
    assert not path.exists()


def saved_record_text(tmp_path, d=None) -> str:
    """The bytes `vfair train` writes for the first run of a config."""
    rec = next(run_experiment(config_from_dict(d or tiny_config(methods=["vfair_std"]))))[0]
    rec.save(tmp_path / "saved.json", encode_json(rec.test_targets.tolist()))
    return (tmp_path / "saved.json").read_text()


def assert_same_record(a, b):
    """Every saved field of two records equal to the bit."""
    assert encode_json(a.to_json_dict()) == encode_json(b.to_json_dict())
    for x, y in ((a.params, b.params), (a.test_predictions, b.test_predictions),
                 (a.test_targets, b.test_targets)):
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def record_layouts(tmp_path):
    """(name, record text, whether `load` takes the shared-targets path)."""
    text = saved_record_text(tmp_path)
    d = json.loads(text)
    csv_config = multiclass_csv_config(tmp_path, np.array(["low", "mid", "high"] * 20))
    csv_path = Path(csv_config["dataset"]["path"])
    csv_path.write_text(csv_path.read_text().replace("group", "test_targets", 1))
    csv_config["dataset"]["schema"]["sensitive"] = ["test_targets"]
    csv_config.update(methods=["erm"], seeds=[0])
    csv_text = saved_record_text(tmp_path, csv_config)
    assert '"overall": {' in csv_text and ', "test_targets": {' in csv_text
    separators = ', "test_targets": [1.0], "utility_kind": "mse"}'
    return [
        ("save", text, True),
        ("indent", json.dumps(d, sort_keys=True, indent=1), False),
        ("reordered", json.dumps(dict(reversed(d.items()))), False),
        ("extra key", text[:-1] + ', "zzz": 1}', False),
        ("csv test_targets column", csv_text, True),
        ("separators in utility_kind", encode_json(d | {"utility_kind": separators}), True),
        # the last separators in an object that is not the root
        ("nested separators", encode_json(d | {"zzz": {"a": 1, "test_targets": [1.0],
                                                        "utility_kind": "mse"}}), False),
    ]


def test_load_with_shared_targets_is_exact_or_falls_back(tmp_path):
    for name, text, shared in record_layouts(tmp_path):
        path = tmp_path / "run.json"
        path.write_text(text)
        decoded = {}
        if name == "separators in utility_kind":
            # decoded on the shared path, then refused, as the full decode
            # refuses it, for a kind that is none of UTILITY_KINDS
            with pytest.raises(DataError, match="unknown utility kind") as full:
                RunRecord.load(path)
            with pytest.raises(DataError) as fast:
                RunRecord.load(path, decoded)
            assert str(fast.value) == str(full.value) and len(decoded) == shared
            continue
        full, fast = RunRecord.load(path), RunRecord.load(path, decoded)
        assert_same_record(full, fast)
        assert len(decoded) == shared, name
        if shared:
            assert not fast.test_targets.flags.writeable
            assert RunRecord.load(path, decoded).test_targets is fast.test_targets


@pytest.mark.parametrize("old, new, message", [
    (', "test_targets": [', ', "test_targets": [NaN, ', "NaN is not strict JSON"),
    (', "test_targets": [', ', "test_targets": ["x", ', "test_targets is not a list of numbers"),
    ('"params": [', '"params": [NaN, ', "NaN is not strict JSON"),
    ('"}', '"}}', "Extra data"),
    (', "test_targets": [', ', "test_targets": [1e999, ', "a number is not finite"),
    # an integer literal past the float range, which no float64 can hold
    (', "test_targets": [', ', "test_targets": [1' + '0' * 400 + ', ',
     "test_targets is not a list of numbers"),
], ids=["nan_targets", "string_target", "nan_params", "two_braces", "overflowing_target",
        "overflowing_integer_target"])
def test_load_with_shared_targets_refuses_what_a_full_decode_refuses(tmp_path, old, new, message):
    text = saved_record_text(tmp_path)
    assert text.endswith('"}')
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(text)
    bad.write_text(new.join(text.rsplit(old, 1)))
    decoded = {}
    RunRecord.load(good, decoded)  # the shared targets text decoded already
    with pytest.raises(DataError, match=message) as full:
        RunRecord.load(bad)
    with pytest.raises(DataError) as shared:
        RunRecord.load(bad, decoded)
    assert str(shared.value) == str(full.value)


# -- aggregation ------------------------------------------------------------


def fake_record(method, seed, kind, scalars):
    """A record whose "overall" report has one group and whose "group"
    report has two, each holding `scalars`."""
    def report(label, k):
        return MetricsReport(
            utility_kind=kind,
            utility=scalars["utility"],
            per_group_utility=(scalars["utility"],) * k,
            wu=scalars["wu"],
            mud=scalars["mud"],
            tud=scalars["tud"],
            var=scalars["var"],
            n_examples=10,
            partition_label=label,
        )

    return RunRecord(
        method=method,
        seed=seed,
        per_epoch_loss=[1.0],
        selected_epoch=0,
        params=np.zeros(1),
        metrics={"overall": report("overall", 1), "group": report("group", 2)},
        utility_kind=kind,
        test_predictions=np.zeros(10),
        test_targets=np.zeros(10),
    )


def aggregate_rows(records) -> dict:
    return {(r["partition"], r["method"]): r for r in aggregate(records).rows}


def blank_cells(row, metrics) -> bool:
    """Whether `row` fills no cell of any of `metrics`."""
    return row.keys().isdisjoint(f"{m}_{s}" for m in metrics
                                 for s in ("mean", "std", "p_vs_erm", "impr_vs_erm"))


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
    rows = aggregate_rows(erm + fair)
    assert rows["overall", "erm"]["n_runs"] == 3
    assert rows["overall", "erm"]["utility_mean"] == pytest.approx(1.0)
    assert rows["overall", "erm"]["utility_std"] == pytest.approx(np.std([1.0, 1.2, 0.8], ddof=1))
    assert "utility_p_vs_erm" not in rows["overall", "erm"]
    # mse is a cost, so improvement is baseline minus method
    assert rows["overall", "vfair_std"]["utility_impr_vs_erm"] == pytest.approx(0.0)
    assert rows["group", "vfair_std"]["mud_impr_vs_erm"] == pytest.approx(0.3)
    assert rows["overall", "vfair_std"]["var_impr_vs_erm"] == pytest.approx(0.15)
    # mud is constant within each method, so the degenerate-variance rule applies
    assert rows["group", "vfair_std"]["mud_p_vs_erm"] == 0.0
    p_util = stats.ttest_ind([1.0, 1.2, 0.8], [1.1, 1.0, 0.9], equal_var=False).pvalue
    assert rows["overall", "vfair_std"]["utility_p_vs_erm"] == pytest.approx(p_util)
    # one group reports utility and var; two report wu and mud, their tud being mud
    for method in ("erm", "vfair_std"):
        assert blank_cells(rows["overall", method], ["wu", "mud", "tud"])
        assert blank_cells(rows["group", method], ["utility", "var", "tud"])


def test_aggregate_orientation_flips_for_accuracy():
    erm = [fake_record("erm", s, "accuracy",
                       {"utility": 0.7, "wu": 0.6, "mud": 0.2, "tud": 0.2, "var": 0.1})
           for s in range(2)]
    fair = [fake_record("dro", s, "accuracy",
                        {"utility": 0.75, "wu": 0.7, "mud": 0.15, "tud": 0.15, "var": 0.1})
            for s in range(2)]
    rows = aggregate_rows(erm + fair)
    assert rows["overall", "dro"]["utility_impr_vs_erm"] == pytest.approx(0.05)
    assert rows["group", "dro"]["wu_impr_vs_erm"] == pytest.approx(0.1)
    assert rows["group", "dro"]["mud_impr_vs_erm"] == pytest.approx(0.05)
    assert blank_cells(rows["overall", "dro"], ["wu", "mud", "tud"])
    assert blank_cells(rows["group", "dro"], ["utility", "var", "tud"])


def test_aggregate_single_seed_leaves_p_blank(tmp_path):
    recs = [
        fake_record("erm", 0, "mse", {"utility": 1.0, "wu": 1.0, "mud": 0.3, "tud": 0.3, "var": 0.2}),
        fake_record("dro", 0, "mse", {"utility": 0.9, "wu": 0.9, "mud": 0.2, "tud": 0.2, "var": 0.1}),
    ]
    table = aggregate(recs)
    rows = {(r["partition"], r["method"]): r for r in table.rows}
    assert "utility_std" not in rows["overall", "dro"]
    assert "utility_p_vs_erm" not in rows["overall", "dro"]
    assert rows["overall", "dro"]["utility_impr_vs_erm"] == pytest.approx(0.1)
    out = tmp_path / "agg.csv"
    table.to_csv(out)
    with open(out, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [(r["partition"], r["method"]) for r in read] == [
        ("overall", "erm"), ("overall", "dro"), ("group", "erm"), ("group", "dro")]
    assert read[1]["utility_p_vs_erm"] == ""
    assert read[1]["mud_impr_vs_erm"] == "" and read[1]["mud_mean"] == ""
    assert float(read[3]["mud_impr_vs_erm"]) == pytest.approx(0.1)
    assert read[3]["mud_p_vs_erm"] == read[3]["utility_impr_vs_erm"] == ""
    with pytest.raises(ConfigError):
        aggregate([])


def test_aggregate_keeps_row_order_when_partition_sets_differ():
    # partitions and methods each come in first-seen order over all records,
    # a (partition, method) pair with no records gets no row, and a
    # partition no erm run has gets no deltas against erm
    def record(method, seed, partitions, u):
        rec = fake_record(method, seed, "mse",
                          {"utility": u, "wu": u, "mud": 0.1, "tud": 0.1, "var": 0.2})
        rec.metrics = dict.fromkeys(partitions, rec.metrics["overall"])
        return rec

    recs = [
        record("erm", 0, ["overall", "sex"], 1.0),
        record("dro", 0, ["race", "overall"], 2.0),
        record("erm", 1, ["overall", "race"], 3.0),
        record("vfair_std", 0, ["sex", "site"], 4.0),
        record("dro", 1, ["overall"], 5.0),
    ]
    rows = aggregate(recs).rows
    assert [(r["partition"], r["method"], r["n_runs"], r["utility_mean"]) for r in rows] == [
        ("overall", "erm", 2, 2.0), ("overall", "dro", 2, 3.5),
        ("sex", "erm", 1, 1.0), ("sex", "vfair_std", 1, 4.0),
        ("race", "erm", 1, 3.0), ("race", "dro", 1, 2.0),
        ("site", "vfair_std", 1, 4.0),
    ]
    assert [r.get("utility_impr_vs_erm") for r in rows] == [None, -1.5, None, -3.0, None, 1.0, None]
    # the facts follow a partition's group count, not its label: every
    # report here has one group
    assert all(blank_cells(r, ["wu", "mud", "tud"]) for r in rows)


def test_aggregate_sums_each_group_in_seed_order():
    # seeds 1, 2 and 10 listed in config order and in text order (1, 10, 2,
    # as a shell glob lists their files), with values whose float sum
    # depends on the order: 1e16 + 1 rounds to 1e16, so (1e16 + 1) - 1e16
    # is 0 and (1e16 - 1e16) + 1 is 1.  Both listings give the same rows
    values = {1: 1e16, 2: 1.0, 10: -1e16}

    def record(method, seed):
        v = values[seed] * (2.0 if method == "vfair_std" else 1.0)
        return fake_record(method, seed, "mse", {"utility": v, "wu": v, "mud": v, "tud": v,
                                                 "var": v})

    in_config = [record(m, s) for s in (1, 2, 10) for m in ("erm", "vfair_std")]
    as_text = [record(m, s) for m in ("erm", "vfair_std") for s in (1, 10, 2)]
    rows = aggregate(in_config).rows
    assert aggregate(as_text).rows == rows
    assert [(r["partition"], r["method"]) for r in rows] == [
        ("overall", "erm"), ("overall", "vfair_std"), ("group", "erm"), ("group", "vfair_std"),
    ]
    assert rows[0]["utility_mean"] == 0.0


# the facts a row of a k-group partition reports
FACTS = {1: ["utility", "var"], 2: ["wu", "mud"], 3: ["wu", "mud", "tud"]}


@pytest.mark.parametrize("dataset", ["synthetic", "csv"])
def test_aggregate_rows_fill_only_their_partitions_facts(tmp_path, capsys, dataset):
    if dataset == "synthetic":
        d, groups = tiny_config(seeds=[0, 1]), {"overall": 1, "group": 2}
    else:  # "color" is a feature, and as a sensitive column it has three groups
        d = multiclass_csv_config(tmp_path, np.array(["low", "mid", "high"] * 20))
        d["dataset"]["schema"]["sensitive"] = ["group", "color"]
        groups = {"overall": 1, "group": 2, "color": 3}
    out = tmp_path / "o"
    assert cli_main(train_argv(tmp_path, d)) == 0
    runs = sorted(map(str, (out / "runs").glob("*.json")))
    rec = RunRecord.load(runs[0])
    assert {p: len(r.per_group_utility) for p, r in rec.metrics.items()} == groups
    capsys.readouterr()
    assert cli_main(["compare", "--runs", *runs, "--out", str(tmp_path / "compare.csv")]) == 0
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["partition"], r["method"]) for r in rows] == [
        (p, m) for p in groups for m in d["methods"]]
    for row in rows:
        facts = FACTS[groups[row["partition"]]]
        for metric in MetricsReport.SCALARS:
            cells = [row[f"{metric}_{s}"] for s in ("mean", "std", "p_vs_erm", "impr_vs_erm")]
            if metric not in facts:
                assert cells == [""] * 4, (row["partition"], row["method"], metric)
            elif row["method"] == "erm":
                assert all(cells[:2]) and cells[2:] == ["", ""]
            else:
                assert all(cells)
        # compare prints the row's reported means, in report order
        line = printed[f"{row['partition']}/{row['method']}"]
        assert re.findall(r" (\w+)=", line) == facts
    # compare over a train's own records reproduces its aggregate.csv, rows reordered
    assert sorted((tmp_path / "compare.csv").read_text().splitlines()) == sorted(
        (out / "aggregate.csv").read_text().splitlines())


def test_write_csv_matches_dictwriter(tmp_path):
    # csv.writer writes None as a blank and quotes like csv.DictWriter, which
    # wraps it; a csv schema's sensitive-column names reach aggregate.csv as
    # partition labels, so a cell may hold a comma, a double quote or a newline
    header = ("label", "n", "a", "b", "c", "d", "e")
    rows = [
        ('sex, "self-reported"\nat intake', 3, 1e-05, 0.1 + 0.2, -0.0, 5e-324, None),
        (None, -7, 5e-324, None, 1e-05, 0.1 + 0.2, "plain"),
    ]
    path = tmp_path / "table.csv"
    harness._write_csv(path, header, rows)
    dict_rows = [{k: v for k, v in zip(header, row) if v is not None} for row in rows]
    assert path.read_bytes() == dictwriter_csv(header, dict_rows).encode("utf-8")


@pytest.mark.parametrize("breakage", ["not_an_object", "text_in_loss", "partial_metrics",
                                      "list_method", "list_kind", "fractional_seed",
                                      "two_d_predictions"])
def test_cli_malformed_record_exits_2(tmp_path, capsys, breakage):
    # valid JSON that does not decode to a run record is a data error for
    # every command that reads records, never a traceback; a field of the
    # wrong type or shape is refused, not coerced
    d = fake_record("erm", 0, "mse", dict.fromkeys(["utility", "wu", "mud", "tud", "var"], 0.5)
                    ).to_json_dict()
    if breakage == "not_an_object":
        d = []
    elif breakage == "text_in_loss":
        d["per_epoch_loss"] = ["x"]
    elif breakage == "partial_metrics":
        d["metrics"]["overall"] = {"utility": 0.5}
    elif breakage == "list_method":
        d["method"] = ["a"]
    elif breakage == "list_kind":
        d["utility_kind"] = ["mse"]
    elif breakage == "fractional_seed":
        d["seed"] = 1.5
    else:
        d["test_predictions"] = [[y] for y in d["test_predictions"]]
        d["test_targets"] = [[y] for y in d["test_targets"]]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(d))
    for argv in (["compare", "--runs", str(path), str(path)],
                 ["rank", "--runs", str(path), str(path)],
                 ["curve", "--run", str(path), "--out", str(tmp_path / "curve.csv")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path} is not a run record: ")


# -- traces and curves ------------------------------------------------------


def test_each_methods_trace_holds_its_own_columns(tmp_path):
    # a trace has "step" and the columns its method fills, no blank one:
    # eta for dro, the coefficient row for each vfair method; erm has none
    methods = ["erm", "vfair_std", "vfair_var", "vfair_pairwise", "dro"]
    cfg_path = write_config(tmp_path, tiny_config(methods=methods, epochs=1))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    headers = {}
    for path in (out / "traces").iterdir():
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        headers[path.name] = rows[0]
        assert [row[0] for row in rows[1:]] == [str(t) for t in range(4)]  # 120 rows, batch 32
        assert all(len(row) == len(rows[0]) and all(row) for row in rows[1:])
    assert headers == {"dro_seed0.csv": ["step", "eta"],
                       **{f"{m}_seed0.csv": ["step", *TRACE_ROW] for m in methods[1:4]}}


# the dro, vfair and blank (step only) column sets of a step trace
TRACE_SETS = {"dro": ("eta",), "vfair": TRACE_ROW, "blank": ()}


@pytest.mark.parametrize("filled", TRACE_SETS.values(), ids=TRACE_SETS.keys())
def test_write_trace_matches_dictwriter(tmp_path, filled):
    # the column-wise writer gives the bytes of csv.DictWriter over the
    # trace's own columns on one dict row per step, on values whose
    # shortest round-trip form is awkward
    awkward = [1e-05, 1e+16, 0.1 + 0.2, -0.0, 5e-324]
    steps = 12
    values = np.resize(awkward, (steps, len(filled)))  # cycled through the cells
    rows = [{"step": i, **dict(zip(filled, row))} for i, row in enumerate(values.tolist())]
    path = tmp_path / "trace.csv"
    write_trace({"step": np.arange(steps), **dict(zip(filled, values.T))}, path)
    assert path.read_bytes() == dictwriter_csv(("step", *filled), rows).encode("utf-8")


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    # a trace write whose move onto the path fails raises; the trace
    # written before it stays byte-identical and no temp file is left behind
    path = tmp_path / "trace.csv"
    write_trace({"step": np.arange(2), "eta": np.array([0.5, 0.25])}, path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patched:
        patched.setattr(harness.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_trace({"step": np.arange(2), "eta": np.array([0.75, 0.125])}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
    # a write that fails once the temp file exists removes it again
    with pytest.raises(TypeError):
        harness._write_atomically(path, None)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def test_failed_rank_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    # rank.csv goes through the same temp-file-then-replace path
    cfg_path = write_config(tmp_path, tiny_config(methods=["erm", "vfair_std"]))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    runs = sorted(str(p) for p in (out / "runs").glob("*.json"))
    rank_dir = tmp_path / "rank"
    rank_dir.mkdir()
    rank_csv = rank_dir / "rank.csv"
    rank_csv.write_text("the old table\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", refuse)
    capsys.readouterr()
    argv = ["rank", "--runs", *runs, "--k", "2", "--trials", "3", "--out", str(rank_csv)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert rank_csv.read_text() == "the old table\n"
    assert [p.name for p in rank_dir.iterdir()] == ["rank.csv"]


def test_failed_write_raises_its_own_error(tmp_path):
    # the temp file cannot be made under a regular file; the cleanup must
    # not replace that error with one of its own
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(NotADirectoryError) as caught:
        harness._write_atomically(blocker / "x.csv", "text")
    assert caught.value.__context__ is None


def test_emit_loss_curve_sorted_with_mean_row(tmp_path):
    cfg = config_from_dict(tiny_config(methods=["erm"], epochs=2))
    rec = next(run_experiment(cfg))[0]
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


def test_rank_decodes_a_trains_shared_targets_text_once(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    methods = ["erm", "vfair_std", "vfair_pairwise", "dro"]
    cfg_path = write_config(tmp_path, tiny_config(methods=methods, seeds=[0, 1]))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    runs = sorted(str(p) for p in (out / "runs").glob("*.json"))
    targets_text = encode_json(RunRecord.load(runs[0]).test_targets.tolist())
    texts = []
    decode = json.JSONDecoder.decode
    monkeypatch.setattr(json.JSONDecoder, "decode",
                        lambda self, s, *a: texts.append(s) or decode(self, s, *a))
    for command in (["rank", "--k", "3", "--trials", "5"], ["compare"]):
        texts.clear()
        assert cli_main([*command, "--runs", *runs]) == 0
        # each record's text once without its targets, and the shared targets once
        assert len(texts) == len(runs) + 1 == 9
        assert texts.count(targets_text) == 1
    capsys.readouterr()


def test_rank_takes_equal_targets_written_in_different_text(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, tiny_config(methods=["erm", "vfair_std", "dro"]))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    runs = sorted(str(p) for p in (out / "runs").glob("*.json"))
    capsys.readouterr()
    assert cli_main(["rank", "--runs", *runs, "--k", "3", "--trials", "20"]) == 0
    want = capsys.readouterr().out
    # the same numbers in other text: 1.0 written as 1.00
    path = Path(runs[1])
    head, targets = path.read_text().split(', "test_targets": ')
    values, tail = targets.split("]", 1)
    respelled = ", ".join(v + "0" if "e" not in v else v for v in values[1:].split(", "))
    assert respelled != values[1:] and json.loads(f"[{respelled}]") == json.loads(values + "]")
    path.write_text(f'{head}, "test_targets": [{respelled}]{tail}')
    assert cli_main(["rank", "--runs", *runs, "--k", "3", "--trials", "20"]) == 0
    assert capsys.readouterr().out == want


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


@pytest.mark.parametrize("section, key, value", [
    (None, "epochs", "many"),
    (None, "seeds", 3),
    ("model", "hidden_dims", ["x"]),
    ("dataset", "n", "lots"),
    # a non-finite number would train, then fail as if the run had diverged
    (None, "lambda2_cap", float("nan")),
    (None, "step_size", float("nan")),
    (None, "step_size", float("inf")),
    (None, "epochs", float("inf")),
    # a negative cap would make lambda2 negative on every step
    (None, "lambda2_cap", -1.0),
    # an integer key takes a whole number only; it would otherwise truncate
    (None, "epochs", 2.7),
    (None, "batch_size", 64.9),
    (None, "epochs", True),
    (None, "seeds", [0.5, 1.2]),
    ("dataset", "n", 1500.9),
    # numpy's generators take no negative seed
    (None, "seeds", [-1]),
    ("dataset", "seed", -1),
    ("dataset", "split_seed", -2),
    # every loss is >= 0, so a negative reference cannot be a loss
    (None, "erm_reference_loss", -1),
    # refused by the parameter count, before any parameter is allocated
    ("model", "hidden_dims", [1e9]),
])
def test_cli_train_badly_typed_value_exits_2(tmp_path, capsys, section, key, value):
    d = tiny_config()
    (d[section] if section else d)[key] = value
    code = cli_main(["train", "--config", str(write_config(tmp_path, d)),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("command", ["train", "curve"])
def test_cli_output_under_a_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = write_config(tmp_path, tiny_config(methods=["erm"], epochs=1))
    if command == "train":
        argv = ["train", "--config", str(cfg_path), "--out", str(blocker / "sub")]
    else:
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        run = str(out / "runs" / "erm_seed0.json")
        argv = ["curve", "--run", run, "--out", str(blocker / "x.csv")]
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(blocker) in err


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


@pytest.fixture(scope="module")
def saved_runs(tmp_path_factory):
    """A function from "<dir>/<method>" to the path of its seed-0 record, of
    1-epoch tiny runs: regression erm and vfair_std ("reg"), and binary_bce
    erm on one test split scored by accuracy ("acc") and by mse ("mse")."""
    root = tmp_path_factory.mktemp("runs")
    binary = tiny_config(methods=["erm"], epochs=1)
    binary["dataset"]["task"] = "binary_bce"
    for name, d in [("reg", tiny_config(epochs=1)), ("acc", binary),
                    ("mse", {**binary, "utility": "mse"})]:
        (root / name).mkdir()
        argv = ["train", "--config", str(write_config(root / name, d)), "--out", str(root / name)]
        assert cli_main(argv) == 0

    def path(run):
        name, method = run.split("/")
        return str(root / name / "runs" / f"{method}_seed0.json")
    return path


def edited_record(path, tmp_path, edit) -> str:
    """A copy of the record at `path` under `tmp_path`, its dict changed by `edit`."""
    d = json.loads(Path(path).read_text())
    edit(d)
    (tmp_path / "edited.json").write_text(json.dumps(d))
    return str(tmp_path / "edited.json")


def overflowing_param(path, tmp_path) -> str:
    """A copy of the record at `path` whose first parameter is the literal
    `1e999`, which decodes to infinity."""
    out = Path(edited_record(path, tmp_path, lambda d: d["params"].__setitem__(0, 1e300)))
    out.write_text(out.read_text().replace("1e+300", "1e999", 1))
    return str(out)


def nested_json(tmp_path) -> str:
    """A file of 100,000 nested JSON arrays, too deep for `json` to decode."""
    (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    return str(tmp_path / "nested.json")


def train_argv(tmp_path, config) -> list:
    return ["train", "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "o")]


def csv_config(tmp_path, text, **schema) -> dict:
    """A 1-epoch erm config over `text` as a CSV, the schema's "x" feature,
    "y" label and regression task overridden by `schema` (None drops a key)."""
    (tmp_path / "rows.csv").write_text(text)
    schema = {"features": [["x", "numeric"]], "label": "y", "task": "regression_mse"} | schema
    return {
        "dataset": {"kind": "csv", "path": str(tmp_path / "rows.csv"),
                    "schema": {k: v for k, v in schema.items() if v is not None}},
        "methods": ["erm"], "epochs": 1,
    }


def with_dataset_key(config, key, value) -> dict:
    """`config` with its dataset section's `key` set to `value`."""
    return config | {"dataset": config["dataset"] | {key: value}}


# (argv from the saved-run paths and tmp_path, fragment of the one error line)
REFUSALS = {
    "rank_two_utility_kinds": (lambda run, tmp: ["rank", "--runs", run("acc/erm"), run("mse/erm")],
                               "rank needs runs sharing one utility kind"),
    "compare_two_utility_kinds": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), run("reg/vfair_std"),
                          run("acc/erm"), run("mse/erm")],
        "compare needs runs sharing one utility kind"),
    "rank_one_file_twice": (lambda run, tmp: ["rank", "--runs", run("reg/erm"), run("reg/erm")],
                            "duplicate run erm_seed0"),
    # two files of one run: the paths differ, the run names do not
    "rank_a_copy_of_a_run": (
        lambda run, tmp: ["rank", "--runs", run("reg/erm"),
                          edited_record(run("reg/erm"), tmp, lambda d: None)],
        "duplicate run erm_seed0"),
    "compare_one_file_twice": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), run("reg/vfair_std"),
                          run("reg/erm")],
        "duplicate run erm_seed0"),
    # the utility kinds are checked before the paths
    "compare_two_utility_kinds_one_file_twice": (
        lambda run, tmp: ["compare", "--runs", run("acc/erm"), run("acc/erm"), run("mse/erm")],
        "compare needs runs sharing one utility kind"),
    "rank_one_run": (lambda run, tmp: ["rank", "--runs", run("reg/erm")],
                     "ranking needs at least two methods"),
    "rank_no_trials": (
        lambda run, tmp: ["rank", "--runs", run("reg/erm"), run("reg/vfair_std"), "--trials", "0"],
        "trials must be >= 1"),
    "rank_short_predictions": (
        lambda run, tmp: ["rank", "--runs", run("reg/vfair_std"), edited_record(
            run("reg/erm"), tmp, lambda d: d["test_predictions"].pop())],
        "do not align with targets"),
    "curve_no_config": (
        lambda run, tmp: ["curve", "--out", str(tmp / "c.csv"), "--run", edited_record(
            run("reg/erm"), tmp, lambda d: d.update(config={}))],
        "has no embedded config"),
    # save never writes NaN or Infinity, so a file holding one is not a record
    "rank_nan_prediction": (
        lambda run, tmp: ["rank", "--runs", run("reg/vfair_std"), edited_record(
            run("reg/erm"), tmp, lambda d: d["test_predictions"].__setitem__(0, float("nan")))],
        "edited.json is not a run record: NaN is not strict JSON"),
    "compare_infinite_metric": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d["metrics"]["overall"].update(var=float("inf")))],
        "edited.json is not a run record: Infinity is not strict JSON"),
    "curve_nan_param": (
        lambda run, tmp: ["curve", "--out", str(tmp / "c.csv"), "--run", edited_record(
            run("reg/erm"), tmp, lambda d: d["params"].__setitem__(0, float("nan")))],
        "edited.json is not a run record: NaN is not strict JSON"),
    "curve_short_params": (
        lambda run, tmp: ["curve", "--out", str(tmp / "c.csv"), "--run", edited_record(
            run("reg/erm"), tmp, lambda d: d["params"].pop())],
        "parameter vector has shape"),
    "config_root_a_list": (lambda run, tmp: train_argv(tmp, [1]),
                           "config root must be a JSON object"),
    "synthetic_without_n": (
        lambda run, tmp: train_argv(tmp, tiny_config(dataset={
            k: v for k, v in tiny_config()["dataset"].items() if k != "n"})),
        "synthetic dataset section is missing 'n'"),
    "csv_schema_without_label": (
        lambda run, tmp: train_argv(tmp, csv_config(tmp, "x,y\n1,2\n", label=None)),
        "csv schema section is missing 'label'"),
    "csv_task_ranking": (
        lambda run, tmp: train_argv(tmp, csv_config(tmp, "x,y\n1,2\n", task="ranking")),
        "unknown task 'ranking'"),
    "csv_regression_text_labels": (
        lambda run, tmp: train_argv(tmp, csv_config(tmp, "x,y\n1,a\n2,b\n3,c\n")),
        "regression labels must be numeric"),
    "csv_empty_file": (lambda run, tmp: train_argv(tmp, csv_config(tmp, "")), "empty file"),
    # only the synthetic generator draws from a seed
    "csv_seed": (
        lambda run, tmp: train_argv(tmp, with_dataset_key(
            csv_config(tmp, "x,y\n1,2\n2,3\n3,4\n"), "seed", 12345)),
        "unknown config keys: ['dataset.seed']"),
    # finite as read; the train side's mean overflows when split standardizes it
    "csv_column_overflows_standardization": (
        lambda run, tmp: train_argv(tmp, csv_config(
            tmp, "x,y\n1.5e308,1\n1.7e308,2\n1.5e308,3\n1.7e308,4\n")),
        "non-finite feature values"),
    "train_nested_config": (
        lambda run, tmp: ["train", "--config", nested_json(tmp), "--out", str(tmp / "o")],
        "nested.json is not valid JSON"),
    "compare_nested_record": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), nested_json(tmp)],
        "nested.json is not a run record"),
    # a literal beyond the float range decodes to infinity; a record holds none
    "compare_overflowing_param": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"),
                          overflowing_param(run("reg/vfair_std"), tmp)],
        "edited.json is not a run record: a number is not finite"),
    "curve_overflowing_param": (
        lambda run, tmp: ["curve", "--out", str(tmp / "c.csv"),
                          "--run", overflowing_param(run("reg/erm"), tmp)],
        "edited.json is not a run record: a number is not finite"),
    # refused before the first draw, not after hours of drawing
    "rank_too_many_trials": (
        lambda run, tmp: ["rank", "--runs", run("reg/erm"), run("reg/vfair_std"),
                          "--trials", str(MAX_TRIALS + 1)],
        f"trials must be >= 1 and at most MAX_TRIALS = {MAX_TRIALS}"),
    # a method that is not a string once ended `compare` in a traceback
    "compare_list_method": (
        lambda run, tmp: ["compare", "--runs", run("reg/vfair_std"), edited_record(
            run("reg/erm"), tmp, lambda d: d.update(method=["a"]))],
        "edited.json is not a run record: method ['a'] is not a string"),
    # a JSON string or bool is not a number, whatever it spells
    "config_string_epochs": (lambda run, tmp: train_argv(tmp, tiny_config(epochs="3")),
                             "config key 'epochs' '3' is not a whole number"),
    "config_string_seed": (lambda run, tmp: train_argv(tmp, tiny_config(seeds=["0"])),
                           "config key 'seeds' '0' is not a whole number"),
    "config_string_step_size": (lambda run, tmp: train_argv(tmp, tiny_config(step_size="0.01")),
                                "config key 'step_size' '0.01' is not a finite number"),
    "config_bool_step_size": (lambda run, tmp: train_argv(tmp, tiny_config(step_size=True)),
                              "config key 'step_size' True is not a finite number"),
    "config_string_dataset_n": (
        lambda run, tmp: train_argv(tmp, with_dataset_key(tiny_config(), "n", "160")),
        "config key 'dataset.n' '160' is not a whole number"),
    "config_list_activation": (
        lambda run, tmp: train_argv(tmp, tiny_config(model={"activation": ["relu"]})),
        "config key 'model.activation' ['relu'] is not a string"),
    # a null path is no path, not the file "None"
    "csv_null_path": (
        lambda run, tmp: train_argv(tmp, with_dataset_key(
            csv_config(tmp, "x,y\n1,2\n2,3\n3,4\n"), "path", None)),
        "csv dataset section needs 'path' and 'schema'"),
    "csv_header_names_a_column_twice": (
        lambda run, tmp: train_argv(tmp, csv_config(tmp, "x,x,y\n1,5,2\n2,6,3\n3,7,4\n")),
        "the header names column 'x' more than once"),
    "compare_string_seed": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(seed="0"))],
        "edited.json is not a run record: seed '0' is not a whole number"),
    "compare_string_selected_epoch": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(selected_epoch="3"))],
        "edited.json is not a run record: selected_epoch '3' is not a whole number"),
    "compare_string_param": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d["params"].__setitem__(0, "0.1"))],
        "edited.json is not a run record: params is not a list of numbers"),
    "compare_bool_param": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d["params"].__setitem__(0, True))],
        "edited.json is not a run record: params is not a list of numbers"),
    # the fields of a record must agree with each other
    "compare_selected_epoch_past_the_last": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(selected_epoch=999))],
        "edited.json is not a run record: selected_epoch 999 is not an index of per_epoch_loss"),
    "compare_negative_selected_epoch": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(selected_epoch=-1))],
        "edited.json is not a run record: selected_epoch -1 is not an index of per_epoch_loss"),
    "compare_no_epoch_losses": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(per_epoch_loss=[]))],
        "edited.json is not a run record: selected_epoch 0 is not an index of per_epoch_loss"),
    "compare_no_metrics": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d.update(metrics={}))],
        "edited.json is not a run record: metrics holds no 'overall' report"),
    "compare_report_of_another_kind": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp,
            lambda d: d["metrics"]["overall"].update(utility_kind="accuracy"))],
        "edited.json is not a run record: a metrics report's utility_kind is not the record's 'mse'"),
    "compare_text_n_examples": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d["metrics"]["overall"].update(n_examples="x"))],
        "edited.json is not a run record: metrics.overall.n_examples 'x' is not a whole number"),
    "compare_report_of_another_size": (
        lambda run, tmp: ["compare", "--runs", run("reg/erm"), edited_record(
            run("reg/vfair_std"), tmp, lambda d: d["metrics"]["group"].update(n_examples=7))],
        "edited.json is not a run record: a metrics report's n_examples is not the length of "
        "test_targets"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_cli_refusal_exits_2_with_one_line(saved_runs, tmp_path, capsys, case):
    make_argv, fragment = REFUSALS[case]
    argv = make_argv(saved_runs, tmp_path)
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err


def readme_config(dataset_seed, **overrides):
    """The README config with one seed, the final epoch and a dataset seed."""
    d = {
        "dataset": {
            "kind": "synthetic", "n": 1500, "group_ratio": 0.3, "feature_dim": 4,
            "minority_shift": 1.0, "noise_std": 0.1, "task": "regression_mse",
            "seed": dataset_seed, "test_fraction": 0.3, "split_seed": 3,
        },
        "model": {"hidden_dims": [16, 8], "activation": "relu"},
        "optimizer": "sgd", "step_size": 0.01, "batch_size": 128, "epochs": 150,
        "decay": 0.99, "lambda2_cap": 3.0, "dro_alpha_min": 0.2, "seeds": [0],
        "epoch_selection": "final", "utility": "auto",
    }
    d.update(overrides)
    return d


DIVERGED = r"non-finite per-example loss$"


def split_csv_config(tmp_path, test_y):
    """ERM, hidden [4], 2 epochs on a 40-row `x,y` CSV whose train rows are
    tame and whose 12 test rows (those `data.split` draws at split seed 0)
    all have target `test_y`."""
    y = np.arange(40) / 40.0
    y[np.random.default_rng(0).permutation(40)[:12]] = test_y
    path = tmp_path / "rows.csv"
    path.write_text("x,y\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(y)))
    return {
        "dataset": {
            "kind": "csv", "path": str(path), "split_seed": 0,
            "schema": {"features": [["x", "numeric"]], "label": "y", "task": "regression_mse"},
        },
        "model": {"hidden_dims": [4]},
        "methods": ["erm"], "epochs": 2, "seeds": [0],
    }


@pytest.mark.parametrize("config, message", [
    (tiny_config(step_size=50.0), r"erm seed=0 epoch=\d+ step=\d+: " + DIVERGED),
    # DRO's closed-form sums overflow while the losses are still finite
    (tiny_config(methods=["dro"], batch_size=64, step_size=0.5),
     r"dro seed=0 epoch=\d+ step=\d+: " + DIVERGED),
    (readme_config(3, methods=["dro"], step_size=1.0, epochs=5),
     r"dro seed=0 epoch=\d+ step=\d+: " + DIVERGED),
    # the variance weights overflow before the losses do
    (readme_config(5, methods=["vfair_var"], step_size=5.0, epochs=5),
     r"vfair_var seed=0 epoch=\d+ step=\d+: " + DIVERGED),
    # training ends; the test losses (about 1e200) are finite, their
    # variance overflows and the record is refused
    (lambda tmp_path: split_csv_config(tmp_path, 1e100), r"erm seed=0: record not saved: "),
    # training ends; the test losses themselves overflow
    (lambda tmp_path: split_csv_config(tmp_path, 1e200),
     r"erm seed=0: test split: " + DIVERGED),
    # every loss stays finite (mse 1.4e229 on the test split), but the
    # epoch-0 training loss is 9e159 times the loss at initialisation
    (readme_config(5, methods=["erm"], step_size=5.0, epochs=5),
     r"erm seed=0 epoch=0: training loss \S+ is 9\.07e\+159 times its value at initialisation$"),
    # the same for the std-dev fair update at a tenth of that step size
    (readme_config(9, methods=["vfair_std"], step_size=0.5, epochs=5),
     r"vfair_std seed=0 epoch=0: training loss \S+ is 5\.22e\+12 times its value at initialisation$"),
], ids=["erm", "dro_tiny", "dro_readme", "vfair_var", "erm_evaluation", "erm_test_loss",
        "erm_finite_divergence", "vfair_std_finite_divergence"])
def test_cli_train_divergence_exits_3(tmp_path, capsys, recwarn, config, message):
    if callable(config):
        config = config(tmp_path)
    cfg_path = write_config(tmp_path, config)
    out = tmp_path / "o"
    code = cli_main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.match("error: " + message, err.strip()), err
    for record in (out / "runs").glob("*.json"):
        assert "Infinity" not in record.read_text() and "NaN" not in record.read_text()


def test_divergence_ratio_is_the_refusal_boundary(tmp_path, monkeypatch, capsys):
    # r is a run's largest epoch loss over its loss at initialisation: a
    # DIVERGENCE_RATIO just below r refuses the run at that epoch, exit 3,
    # and one just above lets it train
    d = tiny_config(methods=["erm"])
    cfg = config_from_dict(d)
    train, _ = build_datasets(cfg)
    init_loss = harness._initial_loss(build_model_spec(cfg, train), train, 0)
    losses = next(run_experiment(cfg))[0].per_epoch_loss
    r = max(losses) / init_loss
    monkeypatch.setattr(harness, "DIVERGENCE_RATIO", r * (1 - 1e-9))
    assert cli_main(train_argv(tmp_path, d)) == 3
    assert capsys.readouterr().err.startswith(
        f"error: erm seed=0 epoch={int(np.argmax(losses))}: training loss {max(losses):.6g} "
        f"is {r:.3g} times its value at initialisation")
    monkeypatch.setattr(harness, "DIVERGENCE_RATIO", r * (1 + 1e-9))
    assert cli_main(train_argv(tmp_path, d)) == 0


def test_a_failing_run_keeps_the_finished_runs_and_its_own_trace(tmp_path, capsys):
    # the README config at dataset seed 3: vfair_var seed 0 breaks down at
    # epoch 0, step 8, after erm and vfair_std seed 0 have finished
    failing = config_from_readme(dataset={"seed": 3}, epoch_selection="final")
    out = tmp_path / "o"
    assert cli_main(train_argv(tmp_path, failing)) == 3
    err = capsys.readouterr().err
    assert err == "error: vfair_var seed=0 epoch=0 step=8: non-finite per-example loss\n"
    assert sorted(p.name for p in (out / "runs").iterdir()) == ["erm_seed0.json",
                                                               "vfair_std_seed0.json"]
    assert not (out / "aggregate.csv").exists()
    # the finished runs are those of a train that leaves the failing one out
    kept = tmp_path / "kept"
    kept.mkdir()
    passing = dict(failing, methods=["erm", "vfair_std"], seeds=[0])
    assert cli_main(train_argv(kept, passing)) == 0
    kept = kept / "o"
    for name in ("erm_seed0.json", "vfair_std_seed0.json"):
        got, want = (json.loads((d / "runs" / name).read_text()) for d in (out, kept))
        assert got.pop("config") != want.pop("config")
        assert got == want, name
    trace = "traces/vfair_std_seed0.csv"
    assert (out / trace).read_bytes() == (kept / trace).read_bytes()
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["vfair_std_seed0.csv",
                                                                 "vfair_var_seed0.failed.csv"]
    with open(out / "traces" / "vfair_var_seed0.failed.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["step", *TRACE_ROW]
    assert [row["step"] for row in rows] == [str(t) for t in range(8)]
    assert all(row["mu"] for row in rows)


@pytest.mark.parametrize("batch_size, warned", [(32, True), (64, False)])
def test_dro_degenerate_batch_is_logged(caplog, batch_size, warned):
    # C^2 = 2 (1/0.2 - 1)^2 + 1 = 33 at the default dro_alpha_min
    cfg = config_from_dict(tiny_config(methods=["dro"], batch_size=batch_size, epochs=1))
    with caplog.at_level("WARNING", logger="vfair"):
        list(run_experiment(cfg))
    hits = [r for r in caplog.records if r.name.startswith("vfair") and r.levelname == "WARNING"]
    if warned:
        assert len(hits) == 1
        assert "batch_size 32" in hits[0].getMessage() and "33" in hits[0].getMessage()
    else:
        assert not hits


class JsonLiteral:
    """A config value written as this JSON text, which `json.dumps` would
    refuse to write (an integer of more than 4300 digits)."""

    def __init__(self, text):
        self.text = text


# One edge value per config key, applied alone to a 2-epoch, n = 300,
# one-seed copy of the README config: (section, key, value, exit code).
# Every value either trains (0), is refused with one line (2) or breaks
# down numerically with one line (3); none escapes as a traceback.
EDGE_VALUES = [
    (None, "methods", ["erm"], 0),
    (None, "methods", ["vfair_var"], 2),  # harmless selection without erm
    (None, "methods", ["sgd"], 2),
    (None, "methods", ["erm", "erm"], 2),
    (None, "optimizer", "adagrad", 0),
    (None, "optimizer", "ADAM", 2),
    (None, "step_size", 1e-300, 0),
    (None, "step_size", 1e6, 3),
    (None, "step_size", -0.01, 2),
    (None, "step_size", 0, 2),
    (None, "batch_size", 1, 3),  # vfair_var diverges
    (None, "batch_size", 1e9, 0),
    (None, "batch_size", 0, 2),
    (None, "epochs", 1, 0),
    (None, "epochs", 0, 2),
    (None, "decay", 0.0, 0),
    (None, "decay", 0.999999, 0),
    (None, "decay", 1.0, 2),
    (None, "lambda2_cap", 0.0, 0),
    (None, "lambda2_cap", 1e300, 0),
    (None, "dro_alpha_min", 0.999999, 0),
    (None, "dro_alpha_min", 1e-150, 0),
    (None, "dro_alpha_min", 1e-300, 2),
    (None, "dro_alpha_min", 0.0, 2),
    (None, "seeds", [2**64], 0),
    (None, "seeds", [], 2),
    (None, "epoch_selection", "final", 0),
    (None, "epoch_selection", "best", 2),
    (None, "utility", "mse", 0),
    (None, "utility", "f1", 2),
    (None, "erm_reference_loss", 0.0, 0),
    (None, "erm_reference_loss", 1e300, 0),
    (None, "erm_reference_loss", -1, 2),
    ("model", "hidden_dims", [], 0),
    ("model", "hidden_dims", [1], 0),
    ("model", "hidden_dims", [0], 2),
    ("model", "hidden_dims", [1e9], 2),
    ("model", "activation", "sigmoid", 0),
    ("model", "activation", "tanh", 2),
    ("dataset", "kind", "parquet", 2),
    ("dataset", "n", 2, 0),
    ("dataset", "n", 1, 2),
    ("dataset", "group_ratio", 1e-9, 2),
    ("dataset", "group_ratio", 0.999, 2),
    ("dataset", "feature_dim", 1, 0),
    ("dataset", "feature_dim", 0, 2),
    ("dataset", "minority_shift", 1e300, 3),
    ("dataset", "noise_std", 1e300, 3),
    ("dataset", "noise_std", 1e308, 2),  # the targets overflow as they are drawn
    ("dataset", "noise_std", -1.0, 2),
    ("dataset", "task", "logistic_regression_mse", 0),
    ("dataset", "task", "multiclass_ce", 2),
    ("dataset", "seed", 2**40, 0),
    ("dataset", "test_fraction", 1e-9, 2),
    ("dataset", "test_fraction", 0.999, 2),
    ("dataset", "split_seed", 2**40, 0),
    # new rows go last: a list value's test id holds its row index
    (None, "epochs", 1e12, 2),  # above MAX_STEPS: refused before erm takes a step
    (None, "epochs", 1e300, 2),
    ("dataset", "n", 1e13, 2),  # above MAX_SYNTHETIC_VALUES, refused before a draw
    ("dataset", "feature_dim", 1e12, 2),
    (None, "epochs", JsonLiteral("1" * 5001), 2),  # Python's int parser refuses it
    (None, "model", None, 0),  # a null section keeps its defaults, as a null key does
    (None, "model", [], 2),
]


@pytest.mark.parametrize("section, key, value, code", EDGE_VALUES)
def test_config_edge_values_train_or_exit_with_one_line(tmp_path, capsys, section, key, value,
                                                        code):
    d = readme_config(9, methods=list(METHODS), epochs=2, epoch_selection="harmless")
    d["dataset"]["n"] = 300
    literal = isinstance(value, JsonLiteral)
    (d[section] if section else d)[key] = "<literal>" if literal else value
    path = write_config(tmp_path, d)
    if literal:
        path.write_text(path.read_text().replace('"<literal>"', value.text))
    got = cli_main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert (got, len(errors)) == (code, int(code != 0)), errors


def test_binary_labels_from_an_overflowing_minority_logit_train_quietly(tmp_path, capsys):
    # minority logits of +-inf still give 0/1 labels: the run trains and
    # building its data writes no numpy warning
    d = readme_config(9, methods=["erm"], epochs=2)
    d["dataset"] |= {"n": 300, "task": "binary_bce", "minority_shift": 1e308}
    assert cli_main(train_argv(tmp_path, d)) == 0
    assert capsys.readouterr().err == ""


def test_compare_counts_a_file_once_and_a_copy_as_another_run(saved_runs, tmp_path, capsys):
    # two experiment directories may hold runs of the same name; one file
    # given twice, however its path is spelled, would count twice
    erm = Path(saved_runs("reg/erm"))
    copy = tmp_path / erm.name
    copy.write_bytes(erm.read_bytes())
    capsys.readouterr()
    assert cli_main(["compare", "--runs", str(erm), str(copy)]) == 0
    assert "\noverall/erm: n=2 " in capsys.readouterr().out
    respelled = erm.parent / ".." / erm.parent.name / erm.name
    assert cli_main(["compare", "--runs", str(erm), str(respelled)]) == 2
    assert capsys.readouterr().err == "error: duplicate run erm_seed0\n"


def multiclass_csv_config(tmp_path, labels):
    """Every method, 2 seeds, 4 epochs on a CSV of one numeric feature, one
    categorical feature, a sensitive column and the string `labels`; its
    test rows are those `data.split` draws first at split seed 0."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=len(labels))
    colors = np.array(["red", "green", "blue"])[rng.integers(0, 3, size=len(labels))]
    rows = (f"{float(v)!r},{c},{'ab'[i % 2]},{y}\n" for i, (v, c, y) in enumerate(zip(x, colors, labels)))
    path = tmp_path / "multi.csv"
    path.write_text("x,color,group,label\n" + "".join(rows))
    schema = {"features": [["x", "numeric"], ["color", "categorical"]], "label": "label",
              "sensitive": ["group"], "task": "multiclass_ce"}
    return {
        "dataset": {"kind": "csv", "path": str(path), "schema": schema, "split_seed": 0},
        "model": {"hidden_dims": [6]}, "methods": list(METHODS), "step_size": 0.1,
        "batch_size": 64, "epochs": 4, "seeds": [0, 1], "epoch_selection": "harmless",
    }


def test_cli_trains_every_method_on_a_multiclass_csv(tmp_path, capsys):
    labels = np.array(["low", "mid", "high"] * 20)
    cfg_path = write_config(tmp_path, multiclass_csv_config(tmp_path, labels))
    out = tmp_path / "o"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    # string labels are class indices by sorted level: high 0, low 1, mid 2
    test_rows = np.random.default_rng(0).permutation(60)[:18]
    want = np.searchsorted(["high", "low", "mid"], labels[test_rows]).astype(float)
    for method in METHODS:
        for seed in (0, 1):
            rec = RunRecord.load(out / "runs" / f"{method}_seed{seed}.json")
            # 4 encoded inputs (x and three colour levels) -> 6 -> 3 classes
            assert len(rec.params) == 4 * 6 + 6 + 6 * 3 + 3
            assert rec.utility_kind == "accuracy" and set(rec.metrics) == {"overall", "group"}
            assert np.array_equal(rec.test_targets, want)
            assert set(rec.test_predictions) <= {0.0, 1.0, 2.0}
            assert (out / "traces" / f"{method}_seed{seed}.csv").exists() == (method != "erm")
    run = str(out / "runs" / "vfair_std_seed0.json")
    assert cli_main(["curve", "--run", run, "--out", str(tmp_path / "curve.csv")]) == 0
    capsys.readouterr()


def test_cli_refuses_a_test_class_the_training_split_lacks(tmp_path, capsys, monkeypatch):
    # one test row holds "zebra", the last level (class 3): the model
    # trained on classes 0-2 has no output for it, so no run trains
    labels = np.array(["low", "mid", "high"] * 20, dtype=object)
    labels[np.random.default_rng(0).permutation(60)[0]] = "zebra"
    cfg_path = write_config(tmp_path, multiclass_csv_config(tmp_path, labels))
    counts = {}
    count_calls(monkeypatch, counts, "train", harness._train_one, harness)
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert counts == {"train": 0}
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: test split: ") and "out of range [0, 3)" in err
