"""Tests for the harmless variance-suppressing update."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import count_calls, directional_derivative_fd
from vfair import nnet, update
from vfair.baselines import DroConfig, dro_direction
from vfair.errors import ConfigError
from vfair.harness import TRACE_COLUMNS
from vfair.nnet import (
    Batch,
    ModelSpec,
    forward,
    init_params,
    per_example_losses,
    weighted_gradient,
)
from vfair.update import (
    OBJECTIVES,
    SIGMA_FLOOR,
    UpdateState,
    batch_sigma,
    ema_update,
    grad_mu,
    lambda1,
    lambda2,
    pairwise_coefficients,
    vfair_direction,
)

# the running mean is the batch mean and lam2 is uncapped: vfair_direction
# with "std_dev" is then the paper's lam * g_mu + g_sigma on batch statistics
BATCH_STATISTICS = UpdateState(decay=0.0, lambda2_cap=np.inf)


def regression_batch_with_losses(losses):
    """A zero-parameter linear model whose per-example losses are `losses`.

    With w = b = 0 every prediction is 0, so targets sqrt(l) give
    squared errors exactly l.
    """
    losses = np.asarray(losses, dtype=float)
    spec = ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="regression_mse")
    x = np.arange(1.0, len(losses) + 1.0)[:, None]
    y = np.sqrt(losses)
    batch = Batch(features=x, targets=y)
    return spec, np.zeros(2), batch


def random_setup(rng):
    task = str(rng.choice(["regression_mse", "binary_bce", "logistic_regression_mse"]))
    hidden = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(0, 3))))
    spec = ModelSpec(
        input_dim=int(rng.integers(1, 5)),
        hidden_dims=hidden,
        output_dim=1,
        task=task,
        activation=str(rng.choice(["relu", "sigmoid", "identity"])),
    )
    b = int(rng.integers(3, 10))
    x = rng.normal(size=(b, spec.input_dim))
    y = rng.normal(size=b) if task == "regression_mse" else rng.integers(0, 2, size=b).astype(float)
    batch = Batch(features=x, targets=y)
    params = init_params(spec, seed=int(rng.integers(1 << 30)))
    return spec, params, batch


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------


def test_ema_first_update_from_zero():
    losses = np.array([0.5, 1.5])
    assert ema_update(0.0, losses, 0.99) == pytest.approx(0.01 * 1.0)


def test_ema_hand_value():
    assert ema_update(2.0, np.array([1.0, 3.0]), 0.9) == pytest.approx(0.9 * 2.0 + 0.1 * 2.0)


def test_ema_closed_form_constant_stream():
    # with a constant batch mean m and mu_0 = 0: mu_t = m * (1 - beta^t)
    beta, m = 0.99, 0.37
    mu = 0.0
    losses = np.full(4, m)
    for t in range(1, 121):
        mu = ema_update(mu, losses, beta)
        assert mu == pytest.approx(m * (1.0 - beta**t), rel=1e-12)


# ---------------------------------------------------------------------------
# sigma / lambdas / weights
# ---------------------------------------------------------------------------


def test_batch_sigma_hand_value():
    # losses [1,2,3] about mu=2: sqrt((1+0+1)/3)
    assert batch_sigma(np.array([1.0, 2.0, 3.0]), 2.0) == pytest.approx(math.sqrt(2.0 / 3.0))


def test_batch_sigma_running_mean_not_batch_mean():
    # equal losses but mu off the batch: sigma is the distance to mu
    assert batch_sigma(np.array([1.0, 1.0]), 0.0) == pytest.approx(1.0)


def test_batch_sigma_floor():
    assert batch_sigma(np.array([2.0, 2.0]), 2.0) == SIGMA_FLOOR == 1e-12


def test_lambda1_hand_values():
    # lambda1(||g_mu||^2, g_mu . g_sec), here with g_mu = [1, 0]
    assert lambda1(1.0, -2.0) == pytest.approx(3.0)  # g_sec = [-2, 0]
    # orthogonal secondary leaves the bound at epsilon
    assert lambda1(1.0, 0.0) == pytest.approx(1.0)  # g_sec = [0, 5]
    # strongly aligned secondary clamps at zero
    assert lambda1(1.0, 9.0) == 0.0  # g_sec = [9, 0]
    # vanishing primary gradient: g_mu = [1e-12, 0], g_sec = [1, 0]
    assert lambda1(1e-24, 1e-12) == 0.0


def test_lambda2_hand_values_and_cap():
    assert lambda2(2.0, math.sqrt(2.0 / 3.0), cap=3.0) == pytest.approx(2.0 / math.sqrt(2.0 / 3.0))
    assert lambda2(4.0, 1.0, cap=3.0) == 3.0
    assert lambda2(0.0, 1.0, cap=3.0) == 0.0


def test_combined_weights_hand_vector():
    # losses [1, 2, 3] at mu = 2: weights lam + (l - mu)/sigma = 1 -/+ 1/sigma
    spec, params, batch = regression_batch_with_losses([1.0, 2.0, 3.0])
    direction, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
    sigma = math.sqrt(2.0 / 3.0)
    assert row["mu"] == pytest.approx(2.0)
    assert row["sigma"] == pytest.approx(sigma)
    assert row["lambda"] == pytest.approx(2.0 / sigma)  # lambda2, uncapped
    z = 1.0 / sigma
    w = row["lambda"] + np.array([-z, 0.0, z])
    assert row["weights_min"] == pytest.approx(w[0])
    np.testing.assert_allclose(direction, weighted_gradient(spec, params, batch, w), rtol=1e-12)


def test_combined_weights_nonnegative_with_lambda2_uncapped():
    # Eq-style contract: lam >= mu/sigma with batch statistics and
    # non-negative losses implies non-negative weights
    rng = np.random.default_rng(10)
    for _ in range(200):
        losses = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 40)))
        spec, params, batch = regression_batch_with_losses(losses)
        _, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        weights = row["lambda"] + (losses - row["mu"]) / row["sigma"]
        assert weights.min() >= -1e-12
        assert row["weights_min"] >= -1e-12


# ---------------------------------------------------------------------------
# Pairwise coefficients
# ---------------------------------------------------------------------------


def test_pairwise_coefficients_strictly_increasing():
    phi = pairwise_coefficients(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(phi, [-1.0, 0.0, 1.0])


def test_pairwise_coefficients_unsorted_input():
    phi = pairwise_coefficients(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(phi, [1.0, -1.0, 0.0])


def test_pairwise_coefficients_ties_give_zero():
    phi = pairwise_coefficients(np.array([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(phi, np.zeros(3))


def test_pairwise_coefficients_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        losses = rng.choice([0.0, 0.25, 1.0, 2.0, 3.5], size=int(rng.integers(1, 30)))
        phi = pairwise_coefficients(losses)
        assert phi.sum() == pytest.approx(0.0)
        assert np.max(np.abs(phi)) <= 1.0 + 1e-15
        # sorted consecutive-difference sum telescopes to max - min
        assert phi @ losses == pytest.approx(losses.max() - losses.min())


def test_unsorted_consecutive_sum_dominates_range():
    # arbitrary-order consecutive sum is an upper bound on max - min,
    # tight exactly in sorted order
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = rng.normal(size=int(rng.integers(2, 20)))
        unsorted_sum = float(np.abs(np.diff(v)).sum())
        assert unsorted_sum >= v.max() - v.min() - 1e-12
        s = np.sort(v)
        assert float(np.abs(np.diff(s)).sum()) == pytest.approx(v.max() - v.min())


# ---------------------------------------------------------------------------
# Gradients: fd + reweighting equivalence
# ---------------------------------------------------------------------------


def test_grad_sigma_matches_fd_with_batch_statistics():
    # the trained direction lam * g_mu + g_sigma against central differences:
    # direction . d == lam * d(mean)/dd + d(sigma)/dd
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 40:
        spec, params, batch = random_setup(rng)
        direction, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
        if row["sigma"] < 1e-4:  # fd of a kink, skip degenerate draws
            continue
        d = rng.normal(size=params.shape)
        d /= np.linalg.norm(d)
        fd = row["lambda"] * directional_derivative_fd(
            spec, params, batch, "mean", d
        ) + directional_derivative_fd(spec, params, batch, "sigma", d)
        tol = 1e-4 if spec.activation == "relu" else 1e-5
        assert abs(fd - float(direction @ d)) <= tol * max(1.0, abs(fd))
        checked += 1


def test_reweighted_form_equals_two_gradient_form():
    # the one stacked backward of vfair_direction must equal lam * g_mu +
    # g_sigma with each gradient from its own backward (batch statistics)
    rng = np.random.default_rng(14)
    for _ in range(50):
        spec, params, batch = random_setup(rng)
        direction, _, row = vfair_direction(BATCH_STATISTICS, spec, params, batch)
        losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
        g_sigma = weighted_gradient(spec, params, batch, (losses - row["mu"]) / row["sigma"])
        double = row["lambda"] * grad_mu(spec, params, batch) + g_sigma
        np.testing.assert_allclose(direction, double, rtol=1e-10, atol=1e-14)


def test_vfair_direction_is_one_reweighted_backward():
    # the direction that trains equals one weighted backward pass with
    # weights lam + sw, sw rebuilt from the row's mu and sigma
    rng = np.random.default_rng(17)
    for objective in OBJECTIVES:
        for _ in range(30):
            spec, params, batch = random_setup(rng)
            state = UpdateState(ema_mean=float(rng.uniform(0.0, 2.0)))
            direction, _, row = vfair_direction(state, spec, params, batch, objective)
            losses = per_example_losses(spec, forward(spec, params, batch), batch.targets)
            if objective == "std_dev":
                sw = (losses - row["mu"]) / row["sigma"]
            elif objective == "variance":
                sw = 2.0 * (losses - row["mu"])
            else:
                sw = pairwise_coefficients(losses)
            single = weighted_gradient(spec, params, batch, row["lambda"] + sw)
            assert np.linalg.norm(direction - single) <= 1e-10 * np.linalg.norm(single)


def test_vfair_direction_one_forward_one_backward(monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, "forward", nnet.forward_cache, nnet, update)
    count_calls(monkeypatch, counts, "backward", nnet.weighted_gradient, update)
    rng = np.random.default_rng(18)
    for objective in OBJECTIVES:
        spec, params, batch = random_setup(rng)
        vfair_direction(UpdateState(), spec, params, batch, objective)
    assert counts == {"forward": 3, "backward": 3}


def test_each_step_unpacks_the_params_once(monkeypatch):
    # the backward reads the (W, b) views its forward cache unpacked
    counts = {}
    count_calls(monkeypatch, counts, "unpack", nnet.unpack, nnet)
    rng = np.random.default_rng(19)
    steps = [grad_mu, lambda s, p, b: dro_direction(s, p, b, DroConfig(alpha_min=0.4))]
    steps += [lambda s, p, b, o=o: vfair_direction(UpdateState(), s, p, b, o) for o in OBJECTIVES]
    for step in steps:
        spec, params, batch = random_setup(rng)
        counts["unpack"] = 0
        step(spec, params, batch)
        assert counts["unpack"] == 1


# ---------------------------------------------------------------------------
# The full step
# ---------------------------------------------------------------------------


def test_step_report_on_hand_built_batch():
    spec, params, batch = regression_batch_with_losses([1.0, 2.0, 3.0])
    state = UpdateState(ema_mean=2.0)  # batch mean is also 2 -> mu stays 2
    direction, new_state, row = vfair_direction(state, spec, params, batch)

    sigma = math.sqrt(2.0 / 3.0)
    assert row["mu"] == pytest.approx(2.0)
    assert row["sigma"] == pytest.approx(sigma)
    assert row["lambda2"] == pytest.approx(min(3.0, 2.0 / sigma))
    assert row["lambda"] == max(row["lambda1"], row["lambda2"])
    assert row["weights_min"] == pytest.approx(row["lambda"] + (1.0 - 2.0) / sigma)
    assert new_state.ema_mean == pytest.approx(2.0)
    # the running mean is the only state a step advances
    assert new_state == dataclasses.replace(state, ema_mean=new_state.ema_mean)
    # a step along the direction would move the parameters
    assert np.any(direction != 0.0)


def test_floored_sigma_with_unit_cap_degenerates_to_mean_step():
    # every loss equals the running mean -> secondary gradient zeroed;
    # with the positivity cap at 1 the fair direction is exactly the
    # gradient erm trains on
    spec = ModelSpec(input_dim=1, hidden_dims=(), output_dim=1, task="regression_mse")
    x = np.ones((4, 1))
    y = np.full(4, 2.0)  # prediction 0 -> every loss is 4
    batch = Batch(features=x, targets=y)
    params = np.zeros(2)
    state = UpdateState(ema_mean=4.0, lambda2_cap=1.0)
    direction, _, row = vfair_direction(state, spec, params, batch)
    assert row["sigma"] == SIGMA_FLOOR
    assert row["lambda"] == 1.0
    np.testing.assert_allclose(direction, grad_mu(spec, params, batch))


def test_variance_objective_hand_lambda2():
    # losses [0, 1] with running mean 0.5: lam2 = 2*(0.5 - 0) = 1
    spec, params, batch = regression_batch_with_losses([0.0, 1.0])
    state = UpdateState(ema_mean=0.5)
    _, _, row = vfair_direction(state, spec, params, batch, objective="variance")
    assert row["mu"] == pytest.approx(0.5)
    assert row["lambda2"] == pytest.approx(1.0)


def test_negative_variance_lambda2_leaves_lambda1_binding():
    # a running mean below every loss (mu = 0.01 * 2 = 0.02 < 1) makes
    # lam2 = 2 * (mu - min l) negative; every weight 2 * (l - mu) is then
    # already positive, so lam = lam1 and the smallest weight stays positive
    spec, params, batch = regression_batch_with_losses([1.0, 2.0, 3.0])
    _, _, row = vfair_direction(UpdateState(), spec, params, batch, objective="variance")
    assert row["mu"] == pytest.approx(0.02)
    assert row["lambda2"] == pytest.approx(2.0 * (0.02 - 1.0))
    assert row["lambda"] == row["lambda1"]
    assert row["weights_min"] > 0.0


def test_pairwise_objective_constant_lambda2():
    spec, params, batch = regression_batch_with_losses([0.2, 0.9, 1.7])
    state = UpdateState(ema_mean=1.0)
    _, _, row = vfair_direction(state, spec, params, batch, objective="pairwise")
    assert row["lambda2"] == 2.0


def test_unknown_objective_rejected():
    spec, params, batch = regression_batch_with_losses([1.0, 2.0])
    with pytest.raises(ConfigError):
        vfair_direction(UpdateState(), spec, params, batch, objective="gini")


def test_descent_safety_all_objectives():
    # the combined direction never loses the mean-loss descent guarantee:
    # direction . g_mu >= epsilon * ||g_mu||^2 (within fp slack)
    rng = np.random.default_rng(16)
    for objective in ("std_dev", "variance", "pairwise"):
        state = UpdateState(ema_mean=0.0)
        for _ in range(40):
            spec, params, batch = random_setup(rng)
            direction, state2, row = vfair_direction(state, spec, params, batch, objective)
            g = grad_mu(spec, params, batch)
            lhs = float(direction @ g)
            assert lhs >= float(g @ g) - 1e-12
            state = UpdateState(ema_mean=state2.ema_mean)  # carry the running mean only


def test_update_state_validation():
    with pytest.raises(ConfigError):
        UpdateState(decay=1.0)
    with pytest.raises(ConfigError):
        UpdateState(step_size=0.0)
    with pytest.raises(ConfigError):
        UpdateState(ema_mean=-0.1)
    with pytest.raises(ConfigError, match="lambda2_cap"):
        UpdateState(lambda2_cap=-1.0)
    # no cap at all is valid: lambda2 is then mu / sigma
    assert UpdateState(lambda2_cap=np.inf).lambda2_cap == np.inf


def test_step_report_row_columns():
    # the row a step returns is the trace's coefficient columns, in order
    spec, params, batch = regression_batch_with_losses([1.0, 2.0, 3.0])
    for objective in OBJECTIVES:
        _, _, row = vfair_direction(UpdateState(), spec, params, batch, objective)
        assert list(row) == [
            "mu", "sigma", "lambda1", "lambda2", "lambda",
            "grad_mu_norm", "grad_dot", "weights_min",
        ]
        assert set(row) < set(TRACE_COLUMNS)
        assert all(type(v) is float for v in row.values())
