"""Tests for CSV ingestion, splitting/normalization, and the synthetic generator."""

import numpy as np
import pytest

from helpers import count_calls
from vfair import data
from vfair.data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    load_csv,
    split,
    synthesize,
    take_batch,
)
from vfair.errors import ConfigError, DataError
from vfair.nnet import Batch


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


BASIC_SCHEMA = DatasetSchema(
    feature_columns=(("age", "numeric"), ("job", "categorical")),
    label_column="y",
    sensitive_columns=("sex",),
    task="binary_bce",
)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def test_schema_validation():
    with pytest.raises(ConfigError):
        DatasetSchema(feature_columns=(), label_column="y", sensitive_columns=(), task="binary_bce")
    with pytest.raises(ConfigError):
        DatasetSchema(
            feature_columns=(("a", "numeric"), ("a", "categorical")),
            label_column="y", sensitive_columns=(), task="binary_bce",
        )
    with pytest.raises(ConfigError):
        DatasetSchema(
            feature_columns=(("a", "ordinal"),), label_column="y",
            sensitive_columns=(), task="binary_bce",
        )
    with pytest.raises(ConfigError):
        DatasetSchema(
            feature_columns=(("y", "numeric"),), label_column="y",
            sensitive_columns=(), task="binary_bce",
        )


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def test_load_csv_encoding_and_standardization(tmp_path):
    p = write_csv(
        tmp_path,
        "age,job,y,sex\n"
        "0,nurse,1,F\n"
        '2,"driver, night",0,M\n',
    )
    ds = load_csv(p, BASIC_SCHEMA)
    assert ds.n == 2
    # numeric columns stay raw; split standardizes them
    assert ds.features[:, 0].tolist() == [0.0, 2.0]
    # one-hot block over sorted levels ("driver, night" < "nurse")
    np.testing.assert_allclose(ds.features[:, 1:], [[0.0, 1.0], [1.0, 0.0]])
    assert ds.targets.tolist() == [1.0, 0.0]
    assert ds.sensitive["sex"].tolist() == ["F", "M"]
    assert ds.rejected_rows == 0
    assert ds.feature_dim == 3


def test_load_csv_rejects_bad_rows(tmp_path, caplog):
    p = write_csv(
        tmp_path,
        "age,job,y,sex\n"
        "1,a,1,F\n"
        ",a,0,M\n"          # missing numeric
        "oops,b,1,F\n"      # non-numeric in numeric column
        "3,b,0,\n"          # missing sensitive
        "inf,a,0,M\n"       # non-finite in numeric column
        "-Infinity,a,1,F\n"
        "NaN,b,0,M\n"
        "5,b,nan,F\n"       # label that parses as a non-finite number
        "4,b,1,M\n",
    )
    with caplog.at_level("WARNING", logger="vfair"):
        ds = load_csv(p, BASIC_SCHEMA)
    assert ds.n == 2
    assert ds.rejected_rows == 7
    assert "dropped 7 malformed/incomplete rows" in caplog.text
    # so does a regression or class label that is not finite (a multiclass
    # "inf" label would otherwise reach int() in build_model_spec and crash)
    p = write_csv(tmp_path, "age,job,y,sex\n1,a,1,F\n2,a,inf,M\n3,b,-nan,F\n", "labels.csv")
    for task in ("regression_mse", "multiclass_ce"):
        ds = load_csv(p, DatasetSchema(BASIC_SCHEMA.feature_columns, "y", ("sex",), task))
        assert ds.targets.tolist() == [1.0]
        assert ds.rejected_rows == 2


def test_load_csv_parses_each_number_once(tmp_path, monkeypatch, caplog):
    # padded and exponent cells are numbers; the rejected ones beside them
    # are not, or are not finite
    p = write_csv(
        tmp_path,
        "age,job,y,sex\n"
        " 2.50 ,a,1,F\n"   # padded
        "1e3,b,0,M\n"      # exponent
        "1e,a,1,F\n"       # not a number
        "2.5.0,b,0,M\n"
        "1e999,a,1,F\n"    # overflows to inf
        "-1E-2,b, 1 ,M\n"
        "7,a,1e999,F\n",   # a label that overflows to inf
    )
    counts = {}
    count_calls(monkeypatch, counts, "parsed", data._number, data)
    with caplog.at_level("WARNING", logger="vfair"):
        ds = load_csv(p, BASIC_SCHEMA)
    assert ds.features[:, 0].tolist() == [2.5, 1000.0, -0.01]
    assert ds.targets.tolist() == [1.0, 0.0, 1.0]
    assert ds.sensitive["sex"].tolist() == ["F", "M", "M"]
    assert ds.rejected_rows == 4
    assert "dropped 4 malformed/incomplete rows" in caplog.text
    # one parse per row for the numeric column and one for the label
    assert counts["parsed"] == 7 * 2


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path, "age,y\n1,0\n")
    with pytest.raises(DataError, match="missing columns"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_no_usable_rows(tmp_path):
    p = write_csv(tmp_path, "age,job,y,sex\n,,,\n")
    with pytest.raises(DataError, match="no usable rows"):
        load_csv(p, BASIC_SCHEMA)


def test_load_csv_string_binary_labels(tmp_path):
    p = write_csv(tmp_path, "age,job,y,sex\n1,a,no,F\n2,a,yes,M\n")
    ds = load_csv(p, BASIC_SCHEMA)
    # sorted levels: no -> 0, yes -> 1
    assert ds.targets.tolist() == [0.0, 1.0]


def test_load_csv_bad_binary_labels(tmp_path):
    p = write_csv(tmp_path, "age,job,y,sex\n1,a,2,F\n2,a,0,M\n")
    with pytest.raises(DataError, match="labels"):
        load_csv(p, BASIC_SCHEMA)


def test_categorical_round_trip(tmp_path):
    p = write_csv(
        tmp_path,
        "age,job,y,sex\n1,x,0,F\n2,y,1,M\n3,x,0,F\n4,z,1,M\n",
    )
    ds = load_csv(p, BASIC_SCHEMA)
    # age is column 0; job is one-hot over its sorted levels x, y, z
    assert ds.numeric_columns == (0,)
    block = ds.features[:, 1:]
    assert np.array_equal(block.sum(axis=1), np.ones(4))
    assert np.array(["x", "y", "z"])[block.argmax(axis=1)].tolist() == ["x", "y", "x", "z"]


def test_constant_numeric_column_zeroed(tmp_path):
    schema = DatasetSchema(
        feature_columns=(("a", "numeric"),), label_column="y",
        sensitive_columns=(), task="regression_mse",
    )
    p = write_csv(tmp_path, "a,y\n5,0.1\n5,0.2\n5,0.3\n5,0.4\n")
    tr, te = split(load_csv(p, schema), test_fraction=0.5, seed=0)
    assert tr.features[:, 0].tolist() == [0.0, 0.0]
    assert te.features[:, 0].tolist() == [0.0, 0.0]


def test_column_constant_on_train_rows_scales_test_rows_by_one(tmp_path):
    # the statistics come from the train rows alone: a column constant
    # there is centred on that constant with unit scale, whatever the
    # test rows hold (whole-file statistics would shrink [1, 9, 5, 7] by
    # the std of all eight rows)
    schema = DatasetSchema(
        feature_columns=(("a", "numeric"),), label_column="y",
        sensitive_columns=(), task="regression_mse",
    )
    perm = np.random.default_rng(0).permutation(8)
    values = np.empty(8)
    values[perm[4:]] = 5.0                      # train rows
    values[perm[:4]] = [1.0, 9.0, 5.0, 7.0]     # test rows, in split order
    rows = "".join(f"{float(v)!r},0.0\n" for v in values)
    tr, te = split(load_csv(write_csv(tmp_path, "a,y\n" + rows), schema), 0.5, seed=0)
    assert tr.features[:, 0].tolist() == [0.0] * 4
    assert te.features[:, 0].tolist() == [-4.0, 4.0, 0.0, 2.0]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def synthetic_for_split():
    return synthesize(
        SyntheticSpec(n=40, group_ratio=0.3, feature_dim=3, minority_shift=1.0, noise_std=0.1),
        seed=5,
    )


def test_split_sizes_and_determinism():
    ds = synthetic_for_split()
    tr1, te1 = split(ds, test_fraction=0.2, seed=3)
    tr2, te2 = split(ds, test_fraction=0.2, seed=3)
    assert te1.n == 8 and tr1.n == 32
    assert np.array_equal(tr1.features, tr2.features)
    assert np.array_equal(te1.targets, te2.targets)
    # different seed shuffles differently
    tr3, _ = split(ds, test_fraction=0.2, seed=4)
    assert not np.array_equal(tr1.targets, tr3.targets)


def test_split_sides_partition_the_data():
    ds = synthetic_for_split()
    tr, te = split(ds, test_fraction=0.25, seed=0)
    assert tr.n + te.n == ds.n
    # targets are a permutation of the originals
    assert sorted(np.concatenate([tr.targets, te.targets]).tolist()) == sorted(
        ds.targets.tolist()
    )


def test_split_normalizes_with_train_stats_only():
    ds = synthetic_for_split()
    tr, te = split(ds, test_fraction=0.3, seed=1)
    assert tr.numeric_columns == tuple(range(tr.feature_dim))
    for j in tr.numeric_columns:
        tr_col = tr.features[:, j]
        te_col = te.features[:, j]
        # train side is exactly standardized (population stats)
        assert tr_col.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.sqrt(np.mean((tr_col - tr_col.mean()) ** 2)) == pytest.approx(1.0)
        # the same transform leaves the test side off-center: recomputing
        # proves the stats were not taken from the test rows
        assert (abs(te_col.mean()) > 1e-12) or (
            abs(np.sqrt(np.mean(te_col**2)) - 1.0) > 1e-12
        )


def test_split_composition_matches_direct_standardization(tmp_path):
    # load_csv keeps the raw values and split standardizes them once: the
    # result equals standardizing the raw values by the train rows' own
    # statistics directly, to the bit
    rows = ["a,y"]
    rng = np.random.default_rng(6)
    raw = rng.uniform(-5.0, 5.0, size=30)
    for v in raw:
        rows.append(f"{float(v)!r},0.0")
    p = tmp_path / "raw.csv"
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema = DatasetSchema(
        feature_columns=(("a", "numeric"),), label_column="y",
        sensitive_columns=(), task="regression_mse",
    )
    ds = load_csv(p, schema)
    tr, te = split(ds, test_fraction=0.2, seed=7)

    perm = np.random.default_rng(7).permutation(30)
    te_idx, tr_idx = perm[:6], perm[6:]
    mean = raw[tr_idx].mean()
    std = np.sqrt(np.mean((raw[tr_idx] - mean) ** 2))
    assert np.array_equal(tr.features[:, 0], (raw[tr_idx] - mean) / std)
    assert np.array_equal(te.features[:, 0], (raw[te_idx] - mean) / std)


def test_split_validation():
    ds = synthetic_for_split()
    with pytest.raises(ConfigError):
        split(ds, test_fraction=0.0, seed=0)
    with pytest.raises(ConfigError):
        split(ds, test_fraction=0.001, seed=0)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_group_sizes_and_determinism():
    spec = SyntheticSpec(n=100, group_ratio=0.3, feature_dim=2, minority_shift=1.0, noise_std=0.1)
    d1 = synthesize(spec, seed=11)
    d2 = synthesize(spec, seed=11)
    assert int(d1.sensitive["group"].sum()) == 30
    assert d1.features.tobytes() == d2.features.tobytes()
    assert d1.targets.tobytes() == d2.targets.tobytes()
    assert not np.array_equal(d1.targets, synthesize(spec, seed=12).targets)


def test_synthesize_unbiased_noiseless_is_linearly_realizable():
    spec = SyntheticSpec(n=50, group_ratio=0.4, feature_dim=3, minority_shift=0.0, noise_std=0.0)
    ds = synthesize(spec, seed=2)
    x1 = np.hstack([ds.features, np.ones((ds.n, 1))])
    w, *_ = np.linalg.lstsq(x1, ds.targets, rcond=None)
    residual = x1 @ w - ds.targets
    assert float(np.abs(residual).max()) < 1e-9


def test_synthesize_biased_regression_hurts_minority_under_least_squares():
    # closed-form least squares as the oracle for "the minority fits worse"
    spec = SyntheticSpec(n=500, group_ratio=0.3, feature_dim=4, minority_shift=1.0, noise_std=0.1)
    ds = synthesize(spec, seed=3)
    x1 = np.hstack([ds.features, np.ones((ds.n, 1))])
    w, *_ = np.linalg.lstsq(x1, ds.targets, rcond=None)
    sq = (x1 @ w - ds.targets) ** 2
    g = ds.sensitive["group"]
    assert sq[g == 1].mean() > sq[g == 0].mean()


def test_synthesize_classification_flip():
    # shift 2 with no noise flips the minority's labels exactly
    spec = SyntheticSpec(
        n=300, group_ratio=0.3, feature_dim=3, minority_shift=2.0, noise_std=0.0,
        task="logistic_regression_mse",
    )
    ds = synthesize(spec, seed=4)
    g = ds.sensitive["group"]
    # reconstruct each group's rule with a linear probe; the two probes
    # must point in opposite directions, and the majority probe must
    # anti-predict the minority labels
    x_maj, y_maj = ds.features[g == 0], ds.targets[g == 0]
    x_min, y_min = ds.features[g == 1], ds.targets[g == 1]
    w_maj, *_ = np.linalg.lstsq(x_maj, y_maj - 0.5, rcond=None)
    w_min, *_ = np.linalg.lstsq(x_min, y_min - 0.5, rcond=None)
    cosine = float(w_maj @ w_min / (np.linalg.norm(w_maj) * np.linalg.norm(w_min)))
    assert cosine < -0.9
    maj_rule = (ds.features @ w_maj > 0.0).astype(float)
    assert float(np.mean(maj_rule[g == 0] == ds.targets[g == 0])) > 0.9
    assert float(np.mean(maj_rule[g == 1] == ds.targets[g == 1])) < 0.1


def test_synthesize_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n=1, group_ratio=0.5, feature_dim=1, minority_shift=0.0, noise_std=0.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, group_ratio=1.0, feature_dim=1, minority_shift=0.0, noise_std=0.0)
    with pytest.raises(ConfigError):
        SyntheticSpec(n=10, group_ratio=0.5, feature_dim=1, minority_shift=0.0, noise_std=0.0, task="multiclass_ce")
    with pytest.raises(ConfigError):
        synthesize(
            SyntheticSpec(n=10, group_ratio=0.01, feature_dim=1, minority_shift=0.0, noise_std=0.0),
            seed=0,
        )


def test_synthetic_size_is_bounded_before_a_draw():
    # n x (feature_dim + 1), the design matrix's values, at the maximum is a
    # spec; one row more is refused when the spec is made, before anything
    # is allocated
    rows = data.MAX_SYNTHETIC_VALUES // 5
    SyntheticSpec(n=rows, group_ratio=0.5, feature_dim=4, minority_shift=0.0, noise_std=0.0)
    with pytest.raises(ConfigError, match="MAX_SYNTHETIC_VALUES"):
        SyntheticSpec(n=rows + 1, group_ratio=0.5, feature_dim=4, minority_shift=0.0,
                      noise_std=0.0)


def test_a_dataset_is_a_batch_checked_when_made():
    # its rows are refused where it is built; a subset is a plain batch
    ds = synthetic_for_split()
    fields = dict(features=ds.features, targets=ds.targets, sensitive=ds.sensitive,
                  numeric_columns=ds.numeric_columns)
    for key, value, message in [
        ("features", np.where(np.arange(40)[:, None] == 7, np.inf, ds.features), "feature"),
        ("targets", np.where(np.arange(40) == 3, np.nan, ds.targets), "target"),
        ("targets", ds.targets[:-1], "aligned"),
        ("sensitive", {"group": ds.sensitive["group"][:-1]}, "'group' misaligned"),
    ]:
        with pytest.raises(DataError, match=message):
            Dataset(**fields | {key: value})
    assert type(ds.subset(np.arange(3))) is Batch
    assert type(take_batch(ds, [3, 5])) is Batch


def test_take_batch():
    ds = synthetic_for_split()
    batch = take_batch(ds, [3, 5, 7])
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.features, ds.features[[3, 5, 7]])
    np.testing.assert_array_equal(batch.targets, ds.targets[[3, 5, 7]])


def test_subset_gathers_the_bytes_of_fancy_indexing_into_a_copy():
    # an index array's `take` gather is a plain row copy: the same bytes as
    # fancy indexing, in memory apart from the source; a slice stays a view
    ds = synthetic_for_split()
    perm = np.random.default_rng(3).permutation(ds.n)
    sub = ds.subset(perm)
    for got, source in ((sub.features, ds.features), (sub.targets, ds.targets)):
        assert got.tobytes() == source[perm].tobytes() and got.shape == source[perm].shape
        assert not np.shares_memory(got, source)
    rows = sub.subset(slice(5, 12))
    assert np.shares_memory(rows.features, sub.features)
    assert np.shares_memory(rows.targets, sub.targets)


def test_a_batch_holds_its_rows_as_a_design_matrix(tmp_path):
    # the rows are [features, 1]: the last design column is exactly 1.0 and
    # `features` is a view of the others, equal to the input, from an int or
    # a non-contiguous array too
    grid = np.arange(24).reshape(4, 6)
    for x in (grid, grid[:, ::2], grid.T * 0.5, np.asfortranarray(grid * -1.5)):
        batch = Batch(features=x, targets=np.zeros(len(x)))
        assert batch.design.shape == (len(x), x.shape[1] + 1)
        assert batch.design.flags.c_contiguous and np.all(batch.design[:, -1] == 1.0)
        assert batch.features.base is batch.design and np.array_equal(batch.features, x)
        assert batch.features.dtype == np.float64 and not np.shares_memory(batch.design, x)
    # the leading columns of a design matrix are taken as it, not copied;
    # any other last column is not a design matrix's
    again = Batch(features=batch.features, targets=batch.targets)
    assert again.design is batch.design and again.features.base is batch.design
    twos = np.full((4, 3), 2.0)
    assert np.all(Batch(features=twos[:, :-1], targets=np.zeros(4)).design[:, -1] == 1.0)
    assert np.all(twos == 2.0)

    # a slice is a view of both arrays, an index array a copy sharing no memory
    ds = synthetic_for_split()
    rows = ds.subset(slice(3, 9))
    assert np.shares_memory(rows.design, ds.design) and np.shares_memory(rows.targets, ds.targets)
    assert rows.features.base is ds.design and np.array_equal(rows.design, ds.design[3:9])
    perm = np.random.default_rng(0).permutation(ds.n)
    gathered = ds.subset(perm)
    assert np.array_equal(gathered.design, ds.design[perm])
    assert np.array_equal(gathered.targets, ds.targets[perm])
    for got in (gathered.design, gathered.features, gathered.targets):
        assert not np.shares_memory(got, ds.design) and not np.shares_memory(got, ds.targets)
    # gathering into `out` writes its arrays and returns it
    again = ds.subset(perm[::-1], out=gathered)
    assert again is gathered and np.array_equal(gathered.design, ds.design[perm[::-1]])
    assert np.array_equal(gathered.targets, ds.targets[perm[::-1]])

    # every way a dataset is made carries its design matrix
    p = write_csv(tmp_path, "a,c,y,g\n1,u,0,F\n2,v,1,M\n4,u,0,F\n8,v,1,M\n")
    csv = load_csv(p, DatasetSchema((("a", "numeric"), ("c", "categorical")), "y", ("g",),
                                    "binary_bce"))
    for made in (ds, *split(ds, 0.25, seed=1), csv, *split(csv, 0.5, seed=0)):
        assert made.design.flags.c_contiguous and np.all(made.design[:, -1] == 1.0)
        assert made.features.base is made.design
        assert made.design.shape == (made.n, made.feature_dim + 1)
    assert csv.feature_dim == 3 and csv.features[:, 0].tolist() == [1.0, 2.0, 4.0, 8.0]


def test_load_csv_refuses_a_read_column_named_twice(tmp_path):
    # a row dict keeps the last of two equal headers, so the schema's "a"
    # would read the second column, [5, 6, 7, 8]; a column no key reads may repeat
    schema = DatasetSchema((("a", "numeric"),), "y", ("g",), "regression_mse")
    p = write_csv(tmp_path, "a,a,y,g\n1,5,0,F\n2,6,1,M\n3,7,0,F\n4,8,1,M\n")
    with pytest.raises(DataError, match="the header names column 'a' more than once"):
        load_csv(p, schema)
    p = write_csv(tmp_path, "a,z,z,y,g\n1,5,5,0,F\n2,6,6,1,M\n3,7,7,0,F\n4,8,8,1,M\n")
    assert load_csv(p, schema).features[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
