"""Tests for the dense-network core: losses, backprop, fd oracle."""

import math

import numpy as np
import pytest

from helpers import directional_derivative_fd
from vfair.errors import ConfigError, DataError
from vfair.nnet import (
    ACTIVATIONS,
    FORWARD_BLOCK_ROWS,
    TASKS,
    Batch,
    ModelSpec,
    forward,
    forward_cache,
    init_params,
    parameter_count,
    per_example_losses,
    predicted_labels,
    predicted_values,
    unpack,
    weighted_gradient,
)


def linear_spec(task="regression_mse", input_dim=1, output_dim=1):
    return ModelSpec(input_dim=input_dim, hidden_dims=(), output_dim=output_dim, task=task)


def make_batch(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and x.shape[1] > 1 and np.ndim(y) == 1 and len(y) == x.shape[1]:
        x = x.T
    y = np.asarray(y, dtype=float)
    return Batch(features=x, targets=y)


def random_spec(rng, task=None):
    task = task or rng.choice(["regression_mse", "binary_bce", "multiclass_ce", "logistic_regression_mse"])
    depth = int(rng.integers(0, 3))
    hidden = tuple(int(rng.integers(2, 7)) for _ in range(depth))
    out = int(rng.integers(2, 5)) if task == "multiclass_ce" else 1
    act = rng.choice(["relu", "sigmoid", "identity"])
    return ModelSpec(
        input_dim=int(rng.integers(1, 6)),
        hidden_dims=hidden,
        output_dim=out,
        task=str(task),
        activation=str(act),
    )


def random_batch(rng, spec, b=None):
    b = b or int(rng.integers(2, 9))
    x = rng.normal(size=(b, spec.input_dim))
    if spec.task == "regression_mse":
        y = rng.normal(size=b)
    elif spec.task == "multiclass_ce":
        y = rng.integers(0, spec.output_dim, size=b)
    else:
        y = rng.integers(0, 2, size=b)
    return Batch(features=x, targets=np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Layout / init
# ---------------------------------------------------------------------------


def test_parameter_count_mlp():
    spec = ModelSpec(input_dim=3, hidden_dims=(4, 2), output_dim=1, task="regression_mse")
    # (3*4 + 4) + (4*2 + 2) + (2*1 + 1) = 16 + 10 + 3
    assert parameter_count(spec) == 29


def test_unpack_views_share_memory():
    spec = linear_spec(input_dim=2)
    params = np.arange(3, dtype=float)
    (w, b), = unpack(spec, params)
    w[0, 0] = 42.0
    assert params[0] == 42.0
    assert b.shape == (1,)


def test_init_params_seeded_and_bounded():
    spec = ModelSpec(input_dim=9, hidden_dims=(5,), output_dim=1, task="regression_mse")
    p1 = init_params(spec, seed=7)
    p2 = init_params(spec, seed=7)
    p3 = init_params(spec, seed=8)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    (w1, b1), (w2, b2) = unpack(spec, p1)
    assert np.all(np.abs(w1) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(b1) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(w2) <= 1.0 / math.sqrt(5))


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="huber")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=3, task="regression_mse")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="multiclass_ce")
    with pytest.raises(ConfigError):
        ModelSpec(input_dim=1, hidden_dims=(0,), output_dim=1, task="regression_mse")


def test_batch_validation():
    with pytest.raises(DataError):
        Batch(features=np.zeros((2, 1)), targets=np.zeros(3))
    with pytest.raises(DataError):
        Batch(features=np.zeros((0, 1)), targets=np.zeros(0))
    with pytest.raises(DataError):
        Batch(features=np.array([[np.inf]]), targets=np.zeros(1))


# ---------------------------------------------------------------------------
# Forward / losses: hand-computed anchors
# ---------------------------------------------------------------------------


def test_forward_zero_params_predicts_zero():
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="regression_mse")
    batch = make_batch([[1.0, -2.0], [0.5, 4.0]], [0.0, 0.0])
    out = forward(spec, np.zeros(parameter_count(spec)), batch)
    assert np.array_equal(out, np.zeros((2, 1)))


B = FORWARD_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("task", TASKS)
def test_blocked_forward_matches_one_pass(task, activation, n):
    spec = ModelSpec(input_dim=7, hidden_dims=(16, 8), output_dim=3 if task == "multiclass_ce" else 1,
                     task=task, activation=activation)
    params = init_params(spec, seed=5)
    batch = Batch(features=np.random.default_rng(n).normal(size=(n, 7)) * 2.0, targets=np.zeros(n))
    blocked = forward(spec, params, batch)
    one_pass = forward_cache(spec, params, batch).outputs
    assert np.array_equal(blocked[:B], one_pass[:B])
    np.testing.assert_allclose(blocked, one_pass, rtol=1e-12, atol=1e-12 * np.abs(one_pass).max())
    assert np.array_equal(forward(spec, params, batch), blocked)


def test_regression_loss_and_gradient_single_example():
    # linear model w=1, b=0 on (x=1, y=0): prediction 1, loss 1,
    # dl/dw = 2*(pred-y)*x = 2, dl/db = 2
    spec = linear_spec()
    params = np.array([1.0, 0.0])
    batch = make_batch([[1.0]], [0.0])
    losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
    assert losses.shape == (1,)
    assert losses[0] == pytest.approx(1.0)
    grad = weighted_gradient(spec, params, batch, np.ones(1))
    assert grad == pytest.approx([2.0, 2.0])


def test_bce_uniform_logit_is_log_two():
    spec = linear_spec(task="binary_bce")
    preds = np.zeros((2, 1))
    losses = per_example_losses(spec, preds, np.array([1.0, 0.0]))
    assert losses == pytest.approx([math.log(2.0), math.log(2.0)])


def test_bce_extreme_logits_stay_finite():
    spec = linear_spec(task="binary_bce")
    preds = np.array([[500.0], [-500.0], [500.0], [-500.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    losses = per_example_losses(spec, preds, y)
    assert np.all(np.isfinite(losses))
    assert losses[0] == pytest.approx(0.0, abs=1e-12)
    assert losses[1] == pytest.approx(0.0, abs=1e-12)
    assert losses[2] == pytest.approx(500.0)
    assert losses[3] == pytest.approx(500.0)


def test_logistic_mse_uniform_prediction_quarter_loss():
    # logit 0 -> p = 0.5 -> squared error 0.25 against either binary target
    spec = linear_spec(task="logistic_regression_mse")
    losses = per_example_losses(spec, np.zeros((2, 1)), np.array([0.0, 1.0]))
    assert losses == pytest.approx([0.25, 0.25])


def test_multiclass_uniform_logits_log_k():
    spec = linear_spec(task="multiclass_ce", output_dim=4)
    losses = per_example_losses(spec, np.zeros((3, 4)), np.array([0.0, 2.0, 3.0]))
    assert losses == pytest.approx([math.log(4.0)] * 3)


def test_multiclass_rejects_out_of_range_class():
    spec = linear_spec(task="multiclass_ce", output_dim=3)
    with pytest.raises(DataError):
        per_example_losses(spec, np.zeros((1, 3)), np.array([3.0]))


def test_binary_targets_validated():
    spec = linear_spec(task="logistic_regression_mse")
    with pytest.raises(DataError):
        per_example_losses(spec, np.zeros((1, 1)), np.array([0.5]))


def test_losses_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        assert np.all(losses >= 0.0)
        assert np.all(np.isfinite(losses))


# ---------------------------------------------------------------------------
# weighted_gradient
# ---------------------------------------------------------------------------


def test_weighted_gradient_matches_mean_gradient_when_uniform():
    rng = np.random.default_rng(1)
    spec = ModelSpec(input_dim=3, hidden_dims=(4,), output_dim=1, task="regression_mse")
    batch = random_batch(rng, spec, b=6)
    params = init_params(spec, seed=3)
    g_uniform = weighted_gradient(spec, params, batch, np.ones(6))
    # mean objective via fd in a few random directions
    for _ in range(5):
        d = rng.normal(size=params.shape)
        fd = directional_derivative_fd(spec, params, batch, "mean", d)
        assert fd == pytest.approx(float(g_uniform @ d), rel=1e-5, abs=1e-8)


def test_weighted_gradient_linear_in_weights():
    rng = np.random.default_rng(2)
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=1, task="binary_bce")
    batch = random_batch(rng, spec, b=5)
    params = init_params(spec, seed=5)
    w1 = rng.normal(size=5)
    w2 = rng.normal(size=5)
    a, b = 0.7, -1.3
    lhs = weighted_gradient(spec, params, batch, a * w1 + b * w2)
    rhs = a * weighted_gradient(spec, params, batch, w1) + b * weighted_gradient(spec, params, batch, w2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_weighted_gradient_zero_weights_zero():
    spec = linear_spec()
    batch = make_batch([[1.0], [2.0]], [0.0, 1.0])
    grad = weighted_gradient(spec, np.array([0.3, -0.2]), batch, np.zeros(2))
    assert np.array_equal(grad, np.zeros(2))


def test_weighted_gradient_permutation_consistent():
    rng = np.random.default_rng(3)
    spec = ModelSpec(input_dim=3, hidden_dims=(4, 3), output_dim=3, task="multiclass_ce", activation="sigmoid")
    batch = random_batch(rng, spec, b=7)
    params = init_params(spec, seed=11)
    weights = rng.uniform(0.5, 2.0, size=7)
    perm = rng.permutation(7)
    shuffled = Batch(features=batch.features[perm], targets=batch.targets[perm])
    g1 = weighted_gradient(spec, params, batch, weights)
    g2 = weighted_gradient(spec, params, shuffled, weights[perm])
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_weighted_gradient_fd_oracle_random_models():
    # the central gradient-correctness property, across tasks/activations/depths
    rng = np.random.default_rng(4)
    for _ in range(60):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        weights = rng.uniform(-1.0, 2.0, size=len(batch))
        grad = weighted_gradient(spec, params, batch, weights)
        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        fd = directional_derivative_fd(spec, params, batch, "weighted", d, weights=weights)
        if spec.activation == "relu":
            tol = 1e-4  # kinks can sit near the probe
        else:
            tol = 1e-6
        assert abs(fd - float(grad @ d)) <= tol * max(1.0, abs(fd)), (spec, fd, float(grad @ d))


def test_weighted_gradient_stacked_rows_match_single_calls_and_fd():
    # a [k, b] call shares one forward cache and one reverse pass; each of
    # its rows must be the 1-d call with that row, and match finite differences
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = random_spec(rng)
        batch = random_batch(rng, spec)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        rows = rng.uniform(-1.0, 2.0, size=(3, len(batch)))
        stacked = weighted_gradient(spec, params, batch, rows, forward_cache(spec, params, batch))
        assert stacked.shape == (3, len(params))
        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        tol = 1e-4 if spec.activation == "relu" else 1e-6
        for row, grad in zip(rows, stacked):
            single = weighted_gradient(spec, params, batch, row)
            assert np.linalg.norm(grad - single) <= 1e-12 * np.linalg.norm(single)
            fd = directional_derivative_fd(spec, params, batch, "weighted", d, weights=row)
            assert abs(fd - float(grad @ d)) <= tol * max(1.0, abs(fd))


def test_weighted_gradient_weight_shapes():
    spec = linear_spec()
    batch = make_batch([[1.0], [2.0]], [0.0, 1.0])
    params = np.array([0.3, -0.2])
    assert weighted_gradient(spec, params, batch, np.ones((1, 2))).shape == (1, 2)


def test_fd_objective_validation():
    spec = linear_spec()
    batch = make_batch([[1.0]], [0.0])
    with pytest.raises(ConfigError):
        directional_derivative_fd(spec, np.zeros(2), batch, "median", np.ones(2))
    with pytest.raises(ConfigError):
        directional_derivative_fd(spec, np.zeros(2), batch, "weighted", np.ones(2))


# ---------------------------------------------------------------------------
# Prediction decoding
# ---------------------------------------------------------------------------


def test_predicted_labels_and_values():
    spec_b = linear_spec(task="binary_bce")
    out = np.array([[2.0], [-1.0], [0.0]])
    assert predicted_labels(spec_b, out).tolist() == [1, 0, 0]
    vals = predicted_values(spec_b, out)
    assert vals[0] > 0.5 > vals[1]

    spec_m = linear_spec(task="multiclass_ce", output_dim=3)
    out_m = np.array([[0.1, 3.0, -1.0], [5.0, 0.0, 0.0]])
    assert predicted_labels(spec_m, out_m).tolist() == [1, 0]

    spec_r = linear_spec()
    assert predicted_values(spec_r, np.array([[1.5]])) == pytest.approx([1.5])
    with pytest.raises(ConfigError):
        predicted_labels(spec_r, np.array([[1.5]]))
    with pytest.raises(ConfigError):
        predicted_values(spec_m, out_m)
